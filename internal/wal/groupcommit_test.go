package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentAppendsAllDurable drives many goroutines through
// Append and verifies every acknowledged record is intact on replay —
// group commit must not reorder bytes within a frame, drop a queued
// record, or ack before its batch's fsync.
func TestConcurrentAppendsAllDurable(t *testing.T) {
	j, dir := openTest(t, WithSegmentBatchWindow(2*time.Millisecond))
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := j.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	j.Close()

	got := map[string]bool{}
	for _, r := range collectRecords(t, dir) {
		got[r] = true
	}
	if len(got) != writers*perWriter {
		t.Fatalf("records = %d, want %d", len(got), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if !got[fmt.Sprintf("w%d-%d", w, i)] {
				t.Fatalf("record w%d-%d missing", w, i)
			}
		}
	}
	s := j.Stats()
	if s.Appends != writers*perWriter {
		t.Errorf("appends = %d, want %d", s.Appends, writers*perWriter)
	}
	if s.Batches < 1 || s.Batches > s.Appends {
		t.Errorf("batches = %d out of range (appends %d)", s.Batches, s.Appends)
	}
}

// TestGroupCommitCoalesces checks that simultaneous appenders share
// fsyncs: with a generous straggler window, 8 concurrent appends must
// land in strictly fewer batches than records.
func TestGroupCommitCoalesces(t *testing.T) {
	j, _ := openTest(t, WithSegmentBatchWindow(50*time.Millisecond))
	defer j.Close()
	const writers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			if err := j.Append([]byte{byte(w)}); err != nil {
				t.Errorf("append: %v", err)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	s := j.Stats()
	if s.Appends != writers {
		t.Fatalf("appends = %d", s.Appends)
	}
	if s.Batches >= writers {
		t.Errorf("batches = %d, want < %d (no coalescing happened)", s.Batches, writers)
	}
}

// TestSingleWriterNoWindowWait: a solitary appender must not sleep the
// batch window. 10 sequential appends under a huge window finishing
// quickly is the observable contract.
func TestSingleWriterNoWindowWait(t *testing.T) {
	j, _ := openTest(t, WithSegmentBatchWindow(time.Second))
	defer j.Close()
	start := time.Now()
	for i := 0; i < 10; i++ {
		if err := j.Append([]byte("solo")); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("10 sequential appends took %v — leader is sleeping the window without concurrency", d)
	}
	if s := j.Stats(); s.Appends != 10 || s.Batches != 10 {
		t.Errorf("stats = %+v, want 10 appends in 10 batches", s)
	}
}

// TestAppendBatchRoundTrip: AppendBatch writes every record in order
// under one batch/fsync, and an empty batch is a no-op.
func TestAppendBatchRoundTrip(t *testing.T) {
	j, dir := openTest(t)
	if err := j.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := j.AppendBatch([][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	if got := collectRecords(t, dir); fmt.Sprint(got) != "[a bb ccc]" {
		t.Fatalf("got = %q", got)
	}
	s := j.Stats()
	if s.Appends != 3 || s.Batches != 1 || s.Syncs != 1 {
		t.Errorf("stats = %+v, want 3 appends / 1 batch / 1 sync", s)
	}
}

// TestAppendBatchAfterClose: the whole batch fails with ErrClosed and
// every record counts as an append error.
func TestAppendBatchAfterClose(t *testing.T) {
	j, _ := openTest(t)
	j.Close()
	if err := j.AppendBatch([][]byte{[]byte("x"), []byte("y")}); err != ErrClosed {
		t.Errorf("err = %v", err)
	}
	if s := j.Stats(); s.AppendErrors != 2 {
		t.Errorf("append errors = %d", s.AppendErrors)
	}
}

// batchSizeRecorder captures SetBatchObserver observations.
type batchSizeRecorder struct {
	mu    sync.Mutex
	sizes []int
}

func (r *batchSizeRecorder) Observe(d time.Duration) {
	r.mu.Lock()
	r.sizes = append(r.sizes, int(d/time.Microsecond))
	r.mu.Unlock()
}

// TestBatchObserverSeesRecordCounts: the batch observer receives one
// observation per commit, encoding the record count on the µs scale,
// and the fsync observer one per fsync — each commit's, Sync's and the
// outgoing segment's at a rotation.
func TestBatchObserverSeesRecordCounts(t *testing.T) {
	j, _ := openTest(t)
	defer j.Close()
	rec, fsyncs := &batchSizeRecorder{}, &batchSizeRecorder{}
	j.SetBatchObserver(rec)
	j.SetFsyncObserver(fsyncs)
	j.Append([]byte("one"))
	j.AppendBatch([][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Rotate(); err != nil {
		t.Fatal(err)
	}
	j.Append([]byte("two"))
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if fmt.Sprint(rec.sizes) != "[1 3 1]" {
		t.Errorf("observed sizes = %v, want [1 3 1]", rec.sizes)
	}
	if n, syncs := len(fsyncs.sizes), j.Stats().Syncs; n != 5 || syncs != 5 {
		t.Errorf("fsyncs observed %d, counted %d, want 5", n, syncs)
	}
}

// TestConcurrentAppendBatchAtomic interleaves AppendBatch calls from
// several goroutines and verifies each batch's records are contiguous
// in the log — group commit must never interleave two batches' frames.
func TestConcurrentAppendBatchAtomic(t *testing.T) {
	j, dir := openTest(t, WithSegmentBatchWindow(time.Millisecond))
	const writers, batchLen = 6, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var recs [][]byte
			for i := 0; i < batchLen; i++ {
				recs = append(recs, []byte(fmt.Sprintf("w%d-%d", w, i)))
			}
			if err := j.AppendBatch(recs); err != nil {
				t.Errorf("batch: %v", err)
			}
		}(w)
	}
	wg.Wait()
	j.Close()

	order := collectRecords(t, dir)
	if len(order) != writers*batchLen {
		t.Fatalf("records = %d", len(order))
	}
	for i := 0; i < len(order); i += batchLen {
		var w byte = order[i][1]
		for k := 0; k < batchLen; k++ {
			want := fmt.Sprintf("w%c-%d", w, k)
			if order[i+k] != want {
				t.Fatalf("batch frames interleaved at %d: got %q want %q (full: %q)", i+k, order[i+k], want, order)
			}
		}
	}
}
