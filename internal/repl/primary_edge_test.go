package repl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/fixtures"
	"timedmedia/internal/telemetry"
	"timedmedia/internal/wal"
)

// A catalog without a segmented journal (the in-memory test setup) can
// still serve snapshots, but has no WAL to stream: the feed refuses
// rather than hanging a follower on a silent empty stream.
func TestPrimaryWithoutSegmentedJournal(t *testing.T) {
	db := fixtures.NewMemDB()
	if _, err := db.Ingest("clip", fixtures.Video(3, 32, 24, 5), catalog.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	p := NewPrimary(db, nil, t.TempDir(), nil)

	rec := httptest.NewRecorder()
	p.HandleWAL(rec, httptest.NewRequest("GET", "/v1/repl/wal?from_seq=0", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("wal without segmented journal = %d, want 500", rec.Code)
	}
	if _, ok := p.startCursor(); ok {
		t.Error("startCursor ok without a segmented journal")
	}

	// Snapshot still works, with X-Repl-Seq the live sequence number
	// the base shipped covers.
	rec = httptest.NewRecorder()
	p.HandleSnapshot(rec, httptest.NewRequest("GET", "/v1/repl/snapshot", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot = %d (%s)", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Repl-Seq"); got != strconv.FormatUint(db.Seq(), 10) {
		t.Errorf("X-Repl-Seq = %q, want %d", got, db.Seq())
	}
	if seq := shippedSeq(t, rec.Body.Bytes(), db.Store()); seq != db.Seq() {
		t.Errorf("the body covers seq %d, want %d", seq, db.Seq())
	}
}

// shippedSeq installs a served chain in a fresh directory, as a
// bootstrapping follower does, and returns the seq it loads at.
func shippedSeq(t *testing.T, body []byte, store blob.Store) uint64 {
	t.Helper()
	dir := t.TempDir()
	if err := (&Follower{dir: dir}).installChain(bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	db, err := catalog.Load(dir, store)
	if err != nil {
		t.Fatalf("the served chain does not load: %v", err)
	}
	return db.Seq()
}

// TestSnapshotSeqNamesShippedBytes: X-Repl-Seq is the seq in the head of
// the base shipped, while writes and a background checkpointer race
// the snapshot's Save — a delta landing between Save and the header
// must not advance the header past the bytes.
func TestSnapshotSeqNamesShippedBytes(t *testing.T) {
	tp := newTestPrimary(t)
	clip := tp.ingest(t, "clip", 6, 31)
	for i := 0; i < 20; i++ { // enough live state that checkpoints stay deltas
		tp.cut(t, clip, fmt.Sprintf("base%02d", i), 0, 2)
	}
	stop := tp.db.StartCheckpointer(tp.dir, time.Millisecond, nil)
	defer stop()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			tp.db.SelectDuration(clip, fmt.Sprintf("race%04d", i), 0, 2)
		}
	}()
	defer func() {
		close(done)
		wg.Wait()
	}()
	for i := 0; i < 10; i++ {
		rec := httptest.NewRecorder()
		tp.p.HandleSnapshot(rec, httptest.NewRequest("GET", "/v1/repl/snapshot", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("snapshot = %d (%s)", rec.Code, rec.Body.String())
		}
		seq := shippedSeq(t, rec.Body.Bytes(), tp.store)
		if got := rec.Header().Get("X-Repl-Seq"); got != strconv.FormatUint(seq, 10) {
			t.Fatalf("snapshot %d: X-Repl-Seq = %s, the shipped base covers seq %d", i, got, seq)
		}
	}
}

func TestHandleSnapshotSaveFailure(t *testing.T) {
	// A regular file where the database directory should be: Save
	// cannot create the directory and must surface the error.
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := NewPrimary(fixtures.NewMemDB(), nil, notDir, nil)
	rec := httptest.NewRecorder()
	p.HandleSnapshot(rec, httptest.NewRequest("GET", "/v1/repl/snapshot", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("snapshot into unwritable dir = %d, want 500", rec.Code)
	}
}

// backlog is the byte-lag estimate carried on heartbeats: zero at the
// durable boundary, positive behind it, and tolerant of segments that
// compaction already deleted.
func TestBacklogEstimate(t *testing.T) {
	tp := newTestPrimary(t, catalog.WithWALSegmentBytes(2*cutBytes))
	for i := 0; i < 5; i++ {
		tp.ingest(t, "clip"+strconv.Itoa(i), 3, int64(i))
	}
	durSeg, durOff, ok := tp.db.WALDurableBoundary()
	if !ok {
		t.Fatal("no durable boundary")
	}
	if got := tp.p.backlog(cursor{seg: durSeg, off: durOff}, durSeg, durOff); got != 0 {
		t.Errorf("backlog at boundary = %d, want 0", got)
	}
	behind := tp.p.backlog(cursor{seg: 1}, durSeg, durOff)
	if behind == 0 {
		t.Error("backlog from segment 1 = 0, want > 0")
	}
	if mid := tp.p.backlog(cursor{seg: 1, off: 8}, durSeg, durOff); mid != behind-8 {
		t.Errorf("backlog with mid-segment offset = %d, want %d", mid, behind-8)
	}

	// Compact everything; a cursor pointing at deleted segments counts
	// only what still exists.
	if err := tp.db.Save(tp.dir); err != nil {
		t.Fatal(err)
	}
	durSeg, durOff, _ = tp.db.WALDurableBoundary()
	if got := tp.p.backlog(cursor{seg: 1}, durSeg, durOff); got != uint64(durOff) {
		t.Errorf("backlog over compacted segments = %d, want %d (active only)", got, durOff)
	}
}

// HandleBlobs skips payloads it cannot open (quarantined, or deleted
// under the listing) instead of failing the whole inventory: the
// follower would fail to fetch them anyway.
func TestHandleBlobsSkipsUnopenable(t *testing.T) {
	tp := newTestPrimary(t)
	tp.ingest(t, "a", 3, 1)
	tp.ingest(t, "b", 3, 2)

	// Payload 1 vanishes between listing and open (a raced delete).
	path := filepath.Join(tp.dir, blob.FileName(blob.ID(1)))
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	tp.p.HandleBlobs(rec, httptest.NewRequest("GET", "/v1/repl/blobs", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("blobs = %d (%s)", rec.Code, rec.Body.String())
	}
	var infos []blobInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	for _, bi := range infos {
		if bi.ID == 1 {
			t.Errorf("missing blob 1 still listed: %+v", infos)
		}
	}
	if len(infos) == 0 {
		t.Error("inventory empty, want the intact blob")
	}
}

// TestReplFeedStopsAtUnreadableRecord hand-writes a segment with a durable,
// CRC-valid frame that is not a journal record between real ones. The
// primary's own replay refuses such a log, so the feed must not ship
// around the frame: it stops there — error naming segment, offset and
// the record before, logged and counted, lastSent not past it — on the
// first response and on every reconnect, with a 500 once there is
// nothing left to send first.
func TestReplFeedStopsAtUnreadableRecord(t *testing.T) {
	tp := newTestPrimary(t)
	clip := tp.ingest(t, "clip", 4, 31)
	tp.cut(t, clip, "a", 0, 2)
	tp.cut(t, clip, "b", 1, 3)
	var good [][]byte // seqs 1..4
	if _, err := wal.ReplaySegments(tp.dir, func(rec []byte) error {
		good = append(good, rec)
		return nil
	}); err != nil || len(good) != 4 {
		t.Fatalf("%d records in the primary's journal (%v), want 4", len(good), err)
	}

	dir := t.TempDir()
	j, err := wal.OpenSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range [][]byte{good[0], good[1], []byte("not a journal record"), good[2], good[3]} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	db := catalog.New(tp.store)
	db.AttachJournal(j, dir)
	defer db.CloseJournal()
	reg := telemetry.NewRegistry()
	p := NewPrimary(db, tp.store, dir, reg)
	durSeg, durOff, _ := db.WALDurableBoundary()
	where := fmt.Sprintf("segment 1, offset %d, after seq 2", 2*12+len(good[0])+len(good[1])) // 12: the WAL1 frame header

	var buf bytes.Buffer
	cur, lastSent := cursor{seg: 1}, uint64(0)
	for pass := 0; pass < 2; pass++ {
		wrote, err := p.ship(&buf, &cur, &lastSent, durSeg, durOff)
		if !errors.Is(err, catalog.ErrReplay) || !strings.Contains(err.Error(), where) {
			t.Fatalf("pass %d: ship = %v, want ErrReplay at %s", pass, err, where)
		}
		if wrote != (pass == 0) || lastSent != 2 {
			t.Errorf("pass %d: wrote %v, lastSent %d; want the two records before the frame shipped once", pass, wrote, lastSent)
		}
	}
	for want := uint64(1); want <= 2; want++ {
		if f, err := ReadFrame(&buf); err != nil || f.Type != TypeRecord || f.Seq != want {
			t.Errorf("shipped frame = %+v (%v), want record %d", f, err, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("after the two good records: %v, want nothing shipped", err)
	}

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	first := httptest.NewRecorder()
	p.HandleWAL(first, httptest.NewRequest("GET", "/v1/repl/wal?from_seq=0", nil))
	if f, err := ReadFrame(first.Body); first.Code != http.StatusOK || err != nil || f.Seq != 1 {
		t.Errorf("first response: status %d, first frame %+v (%v); want 200 and record 1", first.Code, f, err)
	}
	again := httptest.NewRecorder()
	p.HandleWAL(again, httptest.NewRequest("GET", "/v1/repl/wal?from_seq=2", nil))
	if again.Code != http.StatusInternalServerError || !strings.Contains(again.Body.String(), where) {
		t.Errorf("reconnect at the frame: %d %q, want 500 naming %s", again.Code, again.Body.String(), where)
	}
	if n := reg.Counter(telemetry.ReplFeedErrorsFamily, "").Load(); n != 2 {
		t.Errorf("feed errors counted = %d, want 2", n)
	}
	if n := strings.Count(logged.String(), where); n != 2 {
		t.Errorf("%d log lines name %s, want 2:\n%s", n, where, logged.String())
	}
}
