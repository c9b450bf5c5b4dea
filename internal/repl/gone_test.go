package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"timedmedia/internal/telemetry"
)

// TestShipDetectsCompaction drives the feed cursor logic directly:
// after Save compacts the sealed segments, a cursor still parked on
// one of them must report gone when the follower's resume point fell
// below the checkpoint, and must skip ahead silently when the
// follower already has everything the missing segments held.
func TestShipDetectsCompaction(t *testing.T) {
	tp := newTestPrimary(t)
	clip := tp.ingest(t, "clip", 10, 21)
	for i := 0; i < 3; i++ {
		tp.cut(t, clip, []string{"a", "b", "c"}[i], int64(i), int64(i+5))
	}
	if err := tp.db.Save(tp.dir); err != nil {
		t.Fatal(err)
	}
	m := tp.db.Manifest()
	if m == nil || m.OldestSegment <= 1 {
		t.Fatalf("Save did not compact: manifest %+v", m)
	}
	durSeg, durOff, ok := tp.db.WALDurableBoundary()
	if !ok {
		t.Fatal("no durable boundary")
	}

	// A follower that resumed below the checkpoint and whose segment
	// was compacted away: nothing on disk can fill the gap.
	var buf bytes.Buffer
	cur := cursor{seg: 1}
	lastSent := uint64(0)
	if _, err := tp.p.ship(&buf, &cur, &lastSent, durSeg, durOff); !errors.Is(err, errGone) {
		t.Errorf("compacted segment below checkpoint: ship = %v, want errGone", err)
	}

	// A follower already at the checkpoint seq lost nothing to the
	// compaction: the cursor skips the missing files and lands on the
	// live segment.
	cur = cursor{seg: 1}
	lastSent = m.CheckpointSeq
	if _, err := tp.p.ship(&buf, &cur, &lastSent, durSeg, durOff); err != nil {
		t.Errorf("caught-up cursor across compacted segments: ship = %v", err)
	}
	if cur.seg != durSeg {
		t.Errorf("cursor stopped at segment %d, want %d", cur.seg, durSeg)
	}
}

// TestReplGoneFrameRebootstrap covers the live-tail half of the
// compaction protocol: a TypeGone frame arriving mid-stream (rather
// than a 410 up front) must trigger the same automatic re-bootstrap.
// The frame is injected by a wrapper primary so the timing is exact.
func TestReplGoneFrameRebootstrap(t *testing.T) {
	tp := newTestPrimary(t)
	clip := tp.ingest(t, "clip", 10, 22)
	tp.cut(t, clip, "cut1", 2, 8)

	var walCalls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/snapshot", tp.p.HandleSnapshot)
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

	reg := telemetry.NewRegistry()
	f, err := Start(srv.URL, t.TempDir(), Options{
		Registry:      reg,
		ReconnectBase: 5 * time.Millisecond,
		ReconnectMax:  50 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	waitFor(t, "re-bootstrap after gone frame", func() bool {
		ok, _ := f.Ready()
		return ok && f.Status().Bootstraps >= 2
	})
	if got := reg.Counter(telemetry.ReplBootstrapsFamily, "").Load(); got < 2 {
		t.Errorf("bootstraps counter = %d, want >= 2", got)
	}
	if _, err := f.DB().Lookup("cut1"); err != nil {
		t.Errorf("replica after gone-frame recovery: %v", err)
	}
	if err := f.DB().VerifyIndexes(); err != nil {
		t.Errorf("replica index divergence: %v", err)
	}
}

func TestBootstrapServerErrors(t *testing.T) {
	// Blob list endpoint returns garbage.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not json"))
	}))
	defer bad.Close()
	f := newBareFollower(t, bad.URL, t.TempDir())
	if err := f.fetchBlobs(context.Background()); err == nil {
		t.Error("garbage blob list accepted")
	}

	// Blob list fine, snapshot endpoint failing.
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/repl/blobs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode([]blobInfo{})
	})
	mux.HandleFunc("/v1/repl/snapshot", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "disk full", http.StatusInternalServerError)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	f2 := newBareFollower(t, srv.URL, t.TempDir())
	if err := f2.bootstrap(context.Background()); err == nil {
		t.Error("failed snapshot fetch accepted")
	}
}

func TestStatusOnEmptyFollower(t *testing.T) {
	f := &Follower{}
	if st := f.Status(); st.Seq != 0 || st.Ready {
		t.Errorf("zero follower status = %+v", st)
	}
}
