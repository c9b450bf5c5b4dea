package repl

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/faultfs"
	"timedmedia/internal/frame"
	"timedmedia/internal/telemetry"
	"timedmedia/internal/timebase"
)

func genVideo(n int, seed int64) *derive.Value {
	g := frame.Generator{W: 32, H: 24, Seed: seed}
	frames := make([]*frame.Frame, n)
	for i := range frames {
		frames[i] = g.Frame(i)
	}
	return derive.VideoValue(frames, timebase.PAL)
}

// testPrimary is a catalog + feed server wired the way tbmserve wires
// them, on an httptest listener.
type testPrimary struct {
	dir   string
	db    *catalog.DB
	store *blob.FileStore
	p     *Primary
	srv   *httptest.Server
}

// cutBytes is a little under the size of one cut's journal frame (79
// bytes for the cuts below), so a segment bound of n·cutBytes seals a
// segment after at most n cuts.
const cutBytes = 75

func newTestPrimary(t *testing.T, opts ...catalog.Option) *testPrimary {
	t.Helper()
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := catalog.Open(dir, store, opts...)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPrimary(db, store, dir, telemetry.NewRegistry())
	p.SetIntervals(2*time.Millisecond, 15*time.Millisecond)
	mux := http.NewServeMux()
	p.Register(func(pattern, name string, h http.HandlerFunc) { mux.HandleFunc(pattern, h) })
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		db.CloseJournal()
		store.Close()
	})
	return &testPrimary{dir: dir, db: db, store: store, p: p, srv: srv}
}

func (tp *testPrimary) ingest(t *testing.T, name string, frames int, seed int64) core.ID {
	t.Helper()
	id, err := tp.db.Ingest(name, genVideo(frames, seed), catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func (tp *testPrimary) cut(t *testing.T, parent core.ID, name string, from, to int64) core.ID {
	t.Helper()
	id, err := tp.db.SelectDuration(parent, name, from, to)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// caughtUp reports the follower applied and published everything the
// primary acked: its seq advances when a record is staged, its view
// once the record's journal append resolves.
func caughtUp(f *Follower, db *catalog.DB) func() bool {
	return func() bool { return f.DB().CurrentView().Epoch() == db.Seq() }
}

func TestReplBootstrapTailCatchup(t *testing.T) {
	tp := newTestPrimary(t)
	clip := tp.ingest(t, "clip", 10, 1)
	tp.cut(t, clip, "cut1", 2, 8)

	reg := telemetry.NewRegistry()
	f, err := Start(tp.srv.URL, t.TempDir(), Options{
		Registry:      reg,
		ReconnectBase: 5 * time.Millisecond,
		ReconnectMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	waitFor(t, "follower ready", func() bool { ok, _ := f.Ready(); return ok })
	if got, want := f.DB().Len(), tp.db.Len(); got != want {
		t.Fatalf("follower has %d objects, primary %d", got, want)
	}
	for _, name := range []string{"clip", "cut1"} {
		if _, err := f.DB().Lookup(name); err != nil {
			t.Errorf("follower Lookup(%q): %v", name, err)
		}
	}

	// Live tail: a new clip means a new payload blob the follower must
	// fetch mid-stream, plus a derivation on top of it.
	clip2 := tp.ingest(t, "clip2", 6, 2)
	tp.cut(t, clip2, "cut2", 1, 5)
	waitFor(t, "tail catch-up", caughtUp(f, tp.db))

	obj, err := f.DB().Lookup("cut2")
	if err != nil {
		t.Fatal(err)
	}
	v, err := f.DB().Expand(obj.ID)
	if err != nil {
		t.Fatalf("Expand replicated cut: %v", err)
	}
	if len(v.Video) != 4 {
		t.Errorf("replicated cut has %d frames, want 4", len(v.Video))
	}
	if err := f.DB().VerifyIndexes(); err != nil {
		t.Errorf("replica index divergence: %v", err)
	}

	// Lag metrics drain to zero once the heartbeat confirms the gap is
	// closed.
	lagSeqs := reg.Gauge(telemetry.ReplLagSeqsFamily, "")
	lagBytes := reg.Gauge(telemetry.ReplLagBytesFamily, "")
	waitFor(t, "lag gauges at zero", func() bool {
		return lagSeqs.Load() == 0 && lagBytes.Load() == 0
	})
	st := f.Status()
	if st.Role != "follower" || !st.Ready || st.LagSeqs != 0 || st.Seq != tp.db.Seq() {
		t.Errorf("status = %+v", st)
	}
	if reg.Counter(telemetry.ReplAppliedFamily, "").Load() == 0 {
		t.Error("applied counter never moved")
	}
}

// TestReplFollowerRestartResume stops a follower, lets the primary
// advance across several small WAL segments, and restarts the follower
// on the same directory: it must resume from its local seq — no
// re-bootstrap — including when the resume point sits exactly at a
// segment boundary.
func TestReplFollowerRestartResume(t *testing.T) {
	tp := newTestPrimary(t, catalog.WithWALSegmentBytes(2*cutBytes))
	clip := tp.ingest(t, "clip", 12, 3)
	for i := 0; i < 4; i++ {
		tp.cut(t, clip, fmt.Sprintf("early%d", i), int64(i), int64(i+4))
	}

	dir := t.TempDir()
	opts := Options{ReconnectBase: 5 * time.Millisecond, ReconnectMax: 50 * time.Millisecond}
	f, err := Start(tp.srv.URL, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first catch-up", caughtUp(f, tp.db))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Primary keeps going while the follower is down; with at most 2 cuts
	// per segment these writes span multiple new segment files.
	for i := 0; i < 5; i++ {
		tp.cut(t, clip, fmt.Sprintf("late%d", i), int64(i), int64(i+6))
	}

	f2, err := Start(tp.srv.URL, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitFor(t, "resume catch-up", caughtUp(f2, tp.db))

	if st := f2.Status(); st.Bootstraps != 0 {
		t.Errorf("restart re-bootstrapped (%d times); want plain resume", st.Bootstraps)
	}
	if got, want := f2.DB().Len(), tp.db.Len(); got != want {
		t.Errorf("follower has %d objects, primary %d", got, want)
	}
	if _, err := f2.DB().Lookup("late4"); err != nil {
		t.Errorf("missed write from downtime: %v", err)
	}
	if err := f2.DB().VerifyIndexes(); err != nil {
		t.Errorf("replica index divergence: %v", err)
	}
}

// dumpFrom renders what queries over db return: the seq, the live
// objects with their sync constraints, and how many objects every
// as_of from seq from on sees. A follower that bootstrapped from a
// snapshot keeps less history than its primary, so the two agree from
// the follower's version floor on.
func dumpFrom(db *catalog.DB, from uint64) string {
	var sb strings.Builder
	v := db.CurrentView()
	fmt.Fprintf(&sb, "seq %d\n", db.Seq())
	for _, o := range v.Select(func(*core.Object) bool { return true }) {
		fmt.Fprintf(&sb, "%v %v", o, o.Attrs)
		if o.Multimedia != nil {
			fmt.Fprintf(&sb, " %v", o.Multimedia.Syncs)
		}
		sb.WriteByte('\n')
	}
	for seq := from; seq <= db.Seq(); seq++ {
		if av, err := v.AsOf(seq); err == nil {
			fmt.Fprintf(&sb, "as_of %d: %d\n", seq, av.Len())
		}
	}
	return sb.String()
}

// TestReplResumeAfterCollectedBlob: while the follower is down the
// primary ingests a clip, cuts it and deletes both. With no checkpoint
// on the primary the clip's BLOB is still there, and the restarted
// follower applies the whole history, fetching it on the way. With one,
// the BLOB is unlinked — and the checkpoint has passed the follower's
// resume point, so the feed answers 410 and the follower re-bootstraps.
// Either way it ends at the primary's dump, and its directory reopens
// to it.
func TestReplResumeAfterCollectedBlob(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			tp := newTestPrimary(t)
			keep := tp.ingest(t, "keep", 6, 4)

			dir := t.TempDir()
			opts := Options{ReconnectBase: 5 * time.Millisecond, ReconnectMax: 50 * time.Millisecond}
			f, err := Start(tp.srv.URL, dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "first catch-up", caughtUp(f, tp.db))
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			gone := tp.ingest(t, "gone", 5, 5)
			obj, err := tp.db.Get(gone)
			if err != nil {
				t.Fatal(err)
			}
			goneCut := tp.cut(t, gone, "gone-cut", 1, 4)
			for _, id := range []core.ID{goneCut, gone} {
				if err := tp.db.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if checkpoint {
				if err := tp.db.Checkpoint(tp.dir); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tp.store.Open(obj.Blob); errors.Is(err, blob.ErrNotFound) != checkpoint {
				t.Fatalf("primary's copy of the deleted clip's BLOB: %v", err)
			}
			tp.cut(t, keep, "after", 0, 3)

			f2, err := Start(tp.srv.URL, dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer f2.Close()
			waitFor(t, "catch-up past the collected BLOB", caughtUp(f2, tp.db))
			if st := f2.Status(); (st.Bootstraps > 0) != checkpoint {
				t.Errorf("follower re-bootstrapped %d times", st.Bootstraps)
			}
			floor := f2.DB().CurrentView().VersionFloor()
			want := dumpFrom(tp.db, floor)
			if got := dumpFrom(f2.DB(), floor); got != want {
				t.Errorf("follower at\n%s\nprimary at\n%s", got, want)
			}
			if err := f2.DB().VerifyIndexes(); err != nil {
				t.Errorf("replica index divergence: %v", err)
			}
			// What the follower made durable reopens to the same catalog.
			if err := f2.Close(); err != nil {
				t.Fatal(err)
			}
			store, err := blob.OpenFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			reopened, err := catalog.Open(dir, store)
			if err != nil {
				t.Fatalf("reopen of the follower's directory: %v", err)
			}
			defer reopened.CloseJournal()
			if got := dumpFrom(reopened, floor); got != want {
				t.Errorf("reopened follower at\n%s\nprimary at\n%s", got, want)
			}
		})
	}
}

// TestReplCompactedRebootstrap takes a follower down, advances and
// compacts the primary past the follower's resume point, and restarts
// the follower: the feed answers 410 and the follower must rebuild
// itself from a fresh snapshot automatically.
func TestReplCompactedRebootstrap(t *testing.T) {
	tp := newTestPrimary(t, catalog.WithWALSegmentBytes(2*cutBytes))
	clip := tp.ingest(t, "clip", 12, 4)
	tp.cut(t, clip, "cut0", 0, 6)

	dir := t.TempDir()
	opts := Options{ReconnectBase: 5 * time.Millisecond, ReconnectMax: 50 * time.Millisecond}
	f, err := Start(tp.srv.URL, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first catch-up", caughtUp(f, tp.db))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Advance and compact: Save seals the journal, records the new
	// checkpoint seq, and deletes the segments the follower still
	// needed.
	for i := 0; i < 4; i++ {
		tp.cut(t, clip, fmt.Sprintf("gap%d", i), int64(i), int64(i+5))
	}
	if err := tp.db.Save(tp.dir); err != nil {
		t.Fatal(err)
	}
	m := tp.db.Manifest()
	if m == nil {
		t.Fatal("primary has no manifest after Save")
	}

	f2, err := Start(tp.srv.URL, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.DB().Seq() >= m.CheckpointSeq {
		t.Fatalf("test is vacuous: follower seq %d not behind checkpoint %d",
			f2.DB().Seq(), m.CheckpointSeq)
	}
	waitFor(t, "re-bootstrap catch-up", func() bool {
		return f2.Status().Bootstraps > 0 && f2.DB().Seq() == tp.db.Seq()
	})
	if got, want := f2.DB().Len(), tp.db.Len(); got != want {
		t.Errorf("follower has %d objects, primary %d", got, want)
	}
	if _, err := f2.DB().Lookup("gap3"); err != nil {
		t.Errorf("missing post-compaction write: %v", err)
	}
	if err := f2.DB().VerifyIndexes(); err != nil {
		t.Errorf("replica index divergence: %v", err)
	}
}

// TestReplTornFeedReconnect cuts the feed stream mid-frame (half of
// the first read delivered, then the connection dies) and checks the
// follower drops the torn tail, reconnects, and converges anyway. Half
// of the first read ends inside its last record, whether the follower
// reads frame by frame or through a buffer, so that record reaches the
// follower only over a new connection.
func TestReplTornFeedReconnect(t *testing.T) {
	tp := newTestPrimary(t)
	clip := tp.ingest(t, "clip", 10, 5)

	// Seed the replica over a clean connection so the fault schedule
	// below hits only feed reads, not the bootstrap fetches.
	dir := t.TempDir()
	opts := Options{ReconnectBase: 5 * time.Millisecond, ReconnectMax: 50 * time.Millisecond}
	f, err := Start(tp.srv.URL, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "seed catch-up", caughtUp(f, tp.db))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	tp.cut(t, clip, "before-cut", 0, 7)
	inj := faultfs.NewInjector(faultfs.Rule{Op: "net.read", Nth: 1, Short: true})
	opts.Client = &http.Client{Transport: faultfs.WrapTransport(nil, inj)}
	f2, err := Start(tp.srv.URL, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()

	tp.cut(t, clip, "after-cut", 1, 9)
	waitFor(t, "post-tear catch-up", func() bool {
		return caughtUp(f2, tp.db)() && inj.Fired() > 0
	})
	if st := f2.Status(); st.Reconnects == 0 {
		t.Errorf("status records no reconnect after a torn stream: %+v", st)
	}
	for _, name := range []string{"before-cut", "after-cut"} {
		if _, err := f2.DB().Lookup(name); err != nil {
			t.Errorf("Lookup(%q) after tear: %v", name, err)
		}
	}
	if err := f2.DB().VerifyIndexes(); err != nil {
		t.Errorf("replica index divergence: %v", err)
	}
}

// TestFailoverPromote is the crash harness: writers hammer the primary
// while a follower tails, the primary dies mid-stream, and the
// follower is promoted. The promoted catalog must hold an exact prefix
// of the primary's acked writes, verify its indexes clean, and accept
// new writes (including fresh payload blobs) immediately.
func TestFailoverPromote(t *testing.T) {
	tp := newTestPrimary(t, catalog.WithWALSegmentBytes(8*cutBytes))
	clip := tp.ingest(t, "clip", 16, 6)

	reg := telemetry.NewRegistry()
	f, err := Start(tp.srv.URL, t.TempDir(), Options{
		Registry:      reg,
		ReconnectBase: 5 * time.Millisecond,
		ReconnectMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFor(t, "follower ready", func() bool { ok, _ := f.Ready(); return ok })

	// Acked writes, in seq order (one writer goroutine per catalog
	// write path would be nice, but names must map to a total order for
	// the prefix check, so a single writer records the order and a
	// second goroutine supplies concurrency on the read side).
	const writes = 30
	acked := make([]string, 0, writes)
	var ackedMu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writes; i++ {
			name := fmt.Sprintf("failover%d", i)
			if _, err := tp.db.SelectDuration(clip, name, int64(i%8), int64(i%8+6)); err != nil {
				return
			}
			ackedMu.Lock()
			acked = append(acked, name)
			ackedMu.Unlock()
		}
	}()
	// Concurrent reads on the replica while it applies the stream.
	readsDone := make(chan struct{})
	go func() {
		defer close(readsDone)
		for {
			select {
			case <-done:
				return
			default:
			}
			db := f.DB()
			db.Len()
			db.Lookup("clip")
		}
	}()
	<-done
	<-readsDone

	// Kill the primary mid-stream: open feed connections die with it.
	tp.srv.CloseClientConnections()
	tp.srv.Close()

	if err := f.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := f.Promote(); err != nil {
		t.Fatalf("second promote not idempotent: %v", err)
	}
	if ok, _ := f.Ready(); !ok || !f.Promoted() || f.PrimaryURL() != "" {
		t.Error("promoted follower not ready or still pointing at a primary")
	}
	st := f.Status()
	if st.Role != "primary" || !st.Ready || st.LagBytes != 0 {
		t.Errorf("post-promote status = %+v", st)
	}

	// Prefix invariant: seq order equals write order, so the promoted
	// catalog must hold failover0..k-1 and nothing after — a gap would
	// mean replication reordered or dropped an acked write.
	db := f.DB()
	if db.Seq() > tp.db.Seq() {
		t.Errorf("follower seq %d ahead of primary %d", db.Seq(), tp.db.Seq())
	}
	ackedMu.Lock()
	total := len(acked)
	ackedMu.Unlock()
	prefix := 0
	for prefix < total {
		if _, err := db.Lookup(acked[prefix]); err != nil {
			break
		}
		prefix++
	}
	for i := prefix; i < total; i++ {
		if _, err := db.Lookup(acked[i]); err == nil {
			t.Fatalf("replica has %q but is missing %q: not a prefix of the acked order",
				acked[i], acked[prefix])
		}
	}
	if err := db.VerifyIndexes(); err != nil {
		t.Fatalf("promoted index divergence: %v", err)
	}

	// The promoted catalog must take writes, including a fresh payload
	// blob — which must not collide with any file replicated over.
	newClip, err := db.Ingest("post-promote-clip", genVideo(8, 7), catalog.IngestOptions{})
	if err != nil {
		t.Fatalf("ingest after promote: %v", err)
	}
	if _, err := db.SelectDuration(newClip, "post-promote-cut", 1, 6); err != nil {
		t.Fatalf("cut after promote: %v", err)
	}
	v, err := db.Expand(newClip)
	if err != nil || len(v.Video) != 8 {
		t.Fatalf("expand after promote: %v (frames %d)", err, len(v.Video))
	}

	// Promotion wrote a full snapshot: a reopen of the directory sees
	// the same catalog.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
