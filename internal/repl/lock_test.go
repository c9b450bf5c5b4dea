package repl

import (
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/durable"
)

// TestReplFollowerHoldsDirLock: a follower owns its directory from Start to
// Close, through the windows where it writes there with no catalog
// open. Its first bootstrap and a re-bootstrap (the feed's first
// answer is a gone frame) are each held at the snapshot fetch, after
// the BLOBs landed and, the second time, after the wipe. In both
// windows another Open of the directory fails with durable.ErrLocked
// and changes no file; after Close it succeeds.
func TestReplFollowerHoldsDirLock(t *testing.T) {
	tp := newTestPrimary(t)
	clip := tp.ingest(t, "clip", 10, 41)
	tp.cut(t, clip, "cut1", 2, 8)

	// A failed test closes done, which frees a held snapshot fetch so
	// the server can shut down.
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var walCalls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/snapshot", func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		case <-done:
		}
		select {
		case <-release:
		case <-done:
		}
		tp.p.HandleSnapshot(w, r)
	})
	mux.HandleFunc("GET /v1/repl/blobs", tp.p.HandleBlobs)
	mux.HandleFunc("GET /v1/repl/blob/{id}", tp.p.HandleBlob)
	mux.HandleFunc("GET /v1/repl/wal", func(w http.ResponseWriter, r *http.Request) {
		if walCalls.Add(1) == 1 {
			WriteFrame(w, Frame{Type: TypeGone, Seq: tp.db.Seq()})
			return
		}
		tp.p.HandleWAL(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer close(done)

	dir := t.TempDir()
	read := func() map[string]string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range ents {
			data, _ := os.ReadFile(filepath.Join(dir, e.Name()))
			files[e.Name()] = string(data)
		}
		return files
	}
	// refused opens the directory as a second process would, and
	// wants ErrLocked and every file as it was.
	refused := func(window string) {
		t.Helper()
		before := read()
		store, err := blob.OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		db, err := catalog.Open(dir, store)
		if !errors.Is(err, durable.ErrLocked) {
			if err == nil {
				db.CloseJournal()
			}
			t.Fatalf("Open during the %s = %v, want ErrLocked", window, err)
		}
		if after := read(); !maps.Equal(before, after) {
			t.Errorf("the refused Open during the %s changed the directory: %d files before, %d after", window, len(before), len(after))
		}
	}

	started := make(chan error, 1)
	var f *Follower
	go func() {
		var err error
		f, err = Start(srv.URL, dir, Options{
			ReconnectBase: 5 * time.Millisecond,
			ReconnectMax:  50 * time.Millisecond,
			Logf:          t.Logf,
		})
		started <- err
	}()
	<-entered
	refused("bootstrap")
	release <- struct{}{}
	if err := <-started; err != nil {
		t.Fatal(err)
	}
	<-entered
	refused("re-bootstrap")
	release <- struct{}{}
	waitFor(t, "re-bootstrap", func() bool {
		ok, _ := f.Ready()
		return ok && f.Status().Bootstraps >= 2
	})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db, err := catalog.Open(dir, store)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	defer db.CloseJournal()
	if _, err := db.Lookup("cut1"); err != nil {
		t.Errorf("replica after Close: %v", err)
	}
}
