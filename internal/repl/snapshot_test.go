package repl

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/telemetry"
)

// chainPrimary is a primary whose state stands on a base and two
// deltas, each checkpointed by Checkpoint; reg holds its catalog's
// telemetry.
func chainPrimary(t *testing.T) (*testPrimary, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tp := newTestPrimary(t, catalog.WithTelemetry(reg))
	clip := tp.ingest(t, "clip", 6, 41)
	for i := 0; i < 3; i++ {
		tp.cut(t, clip, fmt.Sprintf("cut%d", i), int64(i), int64(i+3))
		if err := tp.db.Checkpoint(tp.dir); err != nil {
			t.Fatal(err)
		}
	}
	if m := tp.db.Manifest(); len(m.Checkpoints) != 3 {
		t.Fatalf("MANIFEST %+v, want a base and two deltas", m)
	}
	return tp, reg
}

// dirListing names every file in dir with its size.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s %d", e.Name(), fi.Size()))
	}
	return out
}

// objectNames lists a catalog's live object names.
func objectNames(db *catalog.DB) []string {
	var out []string
	for _, o := range db.CurrentView().Select(func(*core.Object) bool { return true }) {
		out = append(out, o.Name)
	}
	slices.Sort(out)
	return out
}

// checkpointCount sums tbm_checkpoints_total over both modes.
func checkpointCount(reg *telemetry.Registry) int64 {
	return reg.Counter(telemetry.CheckpointFamily, `mode="full"`).Load() +
		reg.Counter(telemetry.CheckpointFamily, `mode="incremental"`).Load()
}

// TestBootstrapShipsChainAsIs: a follower bootstrapped from a primary
// whose chain is a base and two deltas receives those three files under
// their own names, reaches the primary's seq and serves every primary
// object — and keeps tailing past the chain.
func TestBootstrapShipsChainAsIs(t *testing.T) {
	tp, _ := chainPrimary(t)
	var want []string
	for _, n := range tp.db.Manifest().Checkpoints {
		want = append(want, filepath.Base(catalog.CheckpointFile(tp.dir, n)))
	}
	dir := t.TempDir()
	f, err := Start(tp.srv.URL, dir, Options{ReconnectBase: 5 * time.Millisecond, ReconnectMax: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, _ := filepath.Glob(filepath.Join(dir, "checkpoint.*"))
	for i := range got {
		got[i] = filepath.Base(got[i])
	}
	if !slices.Equal(got, want) {
		t.Errorf("the follower holds chain files %v, want the primary's %v", got, want)
	}
	if rec := f.DB().Recovery(); rec.CheckpointsApplied != 2 || rec.FellBack() {
		t.Errorf("the shipped chain loaded as %+v, want a base and two deltas", rec)
	}
	waitFor(t, "catch-up", caughtUp(f, tp.db))
	if g, w := objectNames(f.DB()), objectNames(tp.db); !slices.Equal(g, w) {
		t.Errorf("follower serves %v, primary %v", g, w)
	}
	clip, err := tp.db.Lookup("clip")
	if err != nil {
		t.Fatal(err)
	}
	tp.cut(t, clip.ID, "late", 0, 2)
	waitFor(t, "tail past the chain", caughtUp(f, tp.db))
	if _, err := f.DB().Lookup("late"); err != nil {
		t.Error(err)
	}
}

// TestBootstrapsWriteNothingOnPrimary: three bootstraps with no write
// between them read the primary's chain: no file appears, changes or
// goes in its directory, and no checkpoint is counted.
func TestBootstrapsWriteNothingOnPrimary(t *testing.T) {
	tp, reg := chainPrimary(t)
	before, ckpts := dirListing(t, tp.dir), checkpointCount(reg)
	for i := 0; i < 3; i++ {
		f, err := Start(tp.srv.URL, t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := f.DB().Seq(); got != tp.db.Seq() {
			t.Errorf("bootstrap %d at seq %d, want %d", i, got, tp.db.Seq())
		}
		f.Close()
	}
	if after := dirListing(t, tp.dir); !slices.Equal(before, after) {
		t.Errorf("bootstraps changed the primary's directory:\n%v\nthen\n%v", before, after)
	}
	if got := checkpointCount(reg); got != ckpts {
		t.Errorf("bootstraps counted %d checkpoints", got-ckpts)
	}
}

// gatedWriter holds a snapshot response's first write until released.
type gatedWriter struct {
	*httptest.ResponseRecorder
	once             sync.Once
	started, release chan struct{}
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.started)
		<-w.release
	})
	return w.ResponseRecorder.Write(p)
}

// TestSnapshotStreamOutlivesUnlink: the snapshot stream's first write
// waits while writes and a 1 ms checkpointer roll the chain over twice,
// so every file the stream opened is unlinked before a byte of it is
// sent. The chain shipped still loads clean, at X-Repl-Seq.
func TestSnapshotStreamOutlivesUnlink(t *testing.T) {
	tp, _ := chainPrimary(t)
	clip, err := tp.db.Lookup("clip")
	if err != nil {
		t.Fatal(err)
	}
	w := &gatedWriter{ResponseRecorder: httptest.NewRecorder(), started: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		tp.p.HandleSnapshot(w, httptest.NewRequest("GET", "/v1/repl/snapshot", nil))
	}()
	<-w.started
	opened, _ := filepath.Glob(filepath.Join(tp.dir, "checkpoint.*"))
	stop := tp.db.StartCheckpointer(tp.dir, time.Millisecond, nil)
	gone := func() bool {
		for _, p := range opened {
			if _, err := os.Stat(p); err == nil {
				return false
			}
		}
		return true
	}
	for i := 0; !gone(); i++ {
		if i == 10000 {
			t.Fatalf("the checkpointer never unlinked %v", opened)
		}
		tp.cut(t, clip.ID, fmt.Sprintf("race%04d", i), 0, 2)
		time.Sleep(time.Millisecond)
	}
	stop()
	close(w.release)
	<-served
	if w.Code != http.StatusOK {
		t.Fatalf("snapshot = %d (%s)", w.Code, w.Body.String())
	}

	dir := t.TempDir()
	if err := (&Follower{dir: dir}).installChain(bytes.NewReader(w.Body.Bytes())); err != nil {
		t.Fatal(err)
	}
	store, err := blob.OpenFileStore(tp.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db, err := catalog.Load(dir, store)
	if err != nil {
		t.Fatalf("the shipped chain does not load: %v", err)
	}
	if rec := db.Recovery(); rec.CheckpointsApplied != 2 || rec.FellBack() || len(rec.Quarantined) > 0 {
		t.Errorf("the shipped chain loaded as %+v, want a clean base and two deltas", rec)
	}
	if got := w.Header().Get("X-Repl-Seq"); got != strconv.FormatUint(db.Seq(), 10) {
		t.Errorf("X-Repl-Seq = %s, the chain loads at seq %d", got, db.Seq())
	}
	if got := objectNames(db); !slices.Equal(got, []string{"clip", "cut0", "cut1", "cut2"}) {
		t.Errorf("the shipped chain holds %v", got)
	}
}
