package repl

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
)

// newBareFollower builds a follower around an existing replica dir
// without starting the tail loop, for exercising internals directly.
func newBareFollower(t *testing.T, primaryURL, dir string) *Follower {
	t.Helper()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := catalog.Open(dir, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		db.CloseJournal()
		store.Close()
	})
	return &Follower{
		primary: strings.TrimRight(primaryURL, "/"),
		dir:     dir,
		client:  &http.Client{},
		db:      db,
		store:   store,
		done:    make(chan struct{}),
	}
}

func TestStartFailsWithoutPrimaryOrLocalState(t *testing.T) {
	// A fresh dir needs one successful bootstrap; a dead primary must
	// fail Start rather than spin forever with nothing to serve.
	_, err := Start("http://127.0.0.1:1", t.TempDir(), Options{})
	if err == nil {
		t.Fatal("Start with no local state and no primary succeeded")
	}
}

func TestFollowerNotReadyWhilePrimaryDown(t *testing.T) {
	// Seed a replica, then restart it against a dead primary: Start
	// succeeds from local state, serves reads, and reports not-ready
	// with a reason while the reconnect loop churns.
	tp := newTestPrimary(t)
	tp.ingest(t, "clip", 8, 11)
	dir := t.TempDir()
	opts := Options{ReconnectBase: time.Millisecond, ReconnectMax: 5 * time.Millisecond}
	f, err := Start(tp.srv.URL, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "seed catch-up", caughtUp(f, tp.db))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tp.srv.Close()

	f2, err := Start(tp.srv.URL, dir, opts)
	if err != nil {
		t.Fatalf("Start from local state with primary down: %v", err)
	}
	defer f2.Close()
	if _, err := f2.DB().Lookup("clip"); err != nil {
		t.Errorf("replica reads while primary down: %v", err)
	}
	if ok, reason := f2.Ready(); ok || reason == "" {
		t.Errorf("Ready() = %v, %q; want not ready with a reason", ok, reason)
	}
	waitFor(t, "reconnect attempts recorded", func() bool {
		st := f2.Status()
		return st.Reconnects > 0 && st.LastError != ""
	})
	if url := f2.PrimaryURL(); url != tp.srv.URL {
		t.Errorf("PrimaryURL() = %q, want %q", url, tp.srv.URL)
	}
	if f2.Promoted() {
		t.Error("unpromoted follower reports Promoted")
	}
}

func TestTailOnceStatusErrors(t *testing.T) {
	var status int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", status)
	}))
	defer srv.Close()
	f := newBareFollower(t, srv.URL, t.TempDir())

	status = http.StatusInternalServerError
	if err := f.tailOnce(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "500") {
		t.Errorf("500 feed: err = %v", err)
	}
	status = http.StatusGone
	if err := f.tailOnce(context.Background()); !errors.Is(err, errGone) {
		t.Errorf("410 feed: err = %v, want errGone", err)
	}
}

func TestApplyRecordRejectsGarbage(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	f := newBareFollower(t, srv.URL, t.TempDir())
	if err := f.applyRecord(context.Background(), []byte("not a journal record")); err == nil {
		t.Fatal("garbage record applied")
	}
}

// TestEnsureBlobFetchFailure: a primary that cannot serve a BLOB is an
// error the tail loop retries, and so is a primary that no longer has
// it (404, typed blob.ErrNotFound) — nothing is installed.
func TestEnsureBlobFetchFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "quarantined", http.StatusInternalServerError)
	}))
	defer srv.Close()
	f := newBareFollower(t, srv.URL, t.TempDir())
	if err := f.ensureBlob(context.Background(), 7); err == nil ||
		!strings.Contains(err.Error(), "500") {
		t.Errorf("failed blob fetch: err = %v", err)
	}

	gone := httptest.NewServer(http.NotFoundHandler())
	defer gone.Close()
	dir := t.TempDir()
	f = newBareFollower(t, gone.URL, dir)
	if err := f.ensureBlob(context.Background(), 7); !errors.Is(err, blob.ErrNotFound) {
		t.Errorf("blob gone from the primary: err = %v, want blob.ErrNotFound", err)
	}
	if _, err := os.Stat(filepath.Join(dir, blob.FileName(7))); err == nil {
		t.Error("a 404 installed a payload file")
	}
}

func TestInstallBlobSizeMismatch(t *testing.T) {
	f := newBareFollower(t, "http://127.0.0.1:1", t.TempDir())
	// Declared length exceeds the delivered bytes: a connection that
	// died mid-payload must not install a truncated file.
	err := f.installBlob(3, strings.NewReader("abc"), 10)
	if err == nil {
		t.Fatal("truncated payload installed")
	}
	if err := f.installBlob(3, strings.NewReader("payload"), 7); err != nil {
		t.Fatalf("exact-length install: %v", err)
	}
	// Installed payloads pass the store's sidecar verification.
	b, err := f.store.Open(3)
	if err != nil {
		t.Fatalf("open installed blob: %v", err)
	}
	if data, err := b.ReadSpan(0, 7); err != nil || string(data) != "payload" {
		t.Errorf("installed payload = %q, %v", data, err)
	}
	// Reserve took effect: the next Create must skip past id 3.
	id, _, err := f.store.Create()
	if err != nil {
		t.Fatal(err)
	}
	if id <= 3 {
		t.Errorf("Create allocated %d over an installed payload", id)
	}
}

func TestReloadLocalReopensFromDisk(t *testing.T) {
	tp := newTestPrimary(t)
	tp.ingest(t, "clip", 6, 12)
	dir := t.TempDir()
	f, err := Start(tp.srv.URL, dir, Options{
		ReconnectBase: 5 * time.Millisecond, ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "catch-up", caughtUp(f, tp.db))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2 := newBareFollower(t, tp.srv.URL, dir)
	before := f2.DB()
	if err := f2.reloadLocal(); err != nil {
		t.Fatal(err)
	}
	after := f2.DB()
	if after == before {
		t.Error("reload did not replace the catalog")
	}
	if _, err := after.Lookup("clip"); err != nil {
		t.Errorf("reloaded replica: %v", err)
	}
}

func TestHandleWALRequestErrors(t *testing.T) {
	tp := newTestPrimary(t)
	clip := tp.ingest(t, "clip", 6, 13)
	tp.cut(t, clip, "cut", 0, 4)
	if err := tp.db.Save(tp.dir); err != nil {
		t.Fatal(err)
	}

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(tp.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := get("/v1/repl/wal"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing from_seq: %d", resp.StatusCode)
	}
	if resp := get("/v1/repl/wal?from_seq=junk"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad from_seq: %d", resp.StatusCode)
	}
	// Save advanced the checkpoint past seq 0, so a from-scratch resume
	// is told to bootstrap instead.
	if resp := get("/v1/repl/wal?from_seq=0"); resp.StatusCode != http.StatusGone {
		t.Errorf("compacted from_seq: %d, want 410", resp.StatusCode)
	}
	if resp := get("/v1/repl/blob/junk"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad blob id: %d", resp.StatusCode)
	}
	if resp := get("/v1/repl/blob/999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing blob: %d", resp.StatusCode)
	}
}

func TestCheckpointSeqWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := catalog.Open(dir, store)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		db.CloseJournal()
		store.Close()
	}()
	p := NewPrimary(db, store, dir, nil)
	if got := p.checkpointSeq(); got != 0 {
		t.Errorf("checkpointSeq with no manifest = %d", got)
	}
}

// failAfter errors after n bytes, exercising WriteFrame's error
// returns (header and payload writes).
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("sink full")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteFrameErrors(t *testing.T) {
	f := Frame{Type: TypeRecord, Seq: 1, Payload: []byte("payload")}
	if err := WriteFrame(&failAfter{n: 0}, f); err == nil {
		t.Error("header write failure not reported")
	}
	if err := WriteFrame(&failAfter{n: frameHeaderLen}, f); err == nil {
		t.Error("payload write failure not reported")
	}
}
