package wal

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

// failingFile fails its next Write when armed, as a full disk would;
// the rollback's truncate and everything else reach the file.
type failingFile struct {
	segmentFile
	armed bool
}

func (f *failingFile) Write(p []byte) (int, error) {
	if f.armed {
		f.armed = false
		return 0, errors.New("injected write failure")
	}
	return f.segmentFile.Write(p)
}

// failNextWrite arms s's active segment to fail its next write.
func failNextWrite(s *Segmented) {
	s.mu.Lock()
	s.f = &failingFile{segmentFile: s.f, armed: true}
	s.mu.Unlock()
}

// fileSize returns path's size on disk.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestFaultFenceJournal: after a failed batch the journal refuses
// every batch enqueued before Unfence, writing nothing and leaving the
// durable size where it was, and takes appends again after it.
func TestFaultFenceJournal(t *testing.T) {
	s, dir := openTest(t)
	defer s.Close()
	if err := s.Append([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	size := fileSize(t, SegmentFile(dir, 1))
	failNextWrite(s)
	if err := s.Append([]byte("failed")); err == nil || errors.Is(err, ErrFenced) {
		t.Fatalf("append over a failing write: %v", err)
	}
	if err := s.AppendBatch([][]byte{[]byte("built"), []byte("on it")}); !errors.Is(err, ErrFenced) {
		t.Fatalf("batch after the failed one: %v, want ErrFenced", err)
	}
	if _, durable := s.DurableBoundary(); fileSize(t, SegmentFile(dir, 1)) != size || durable != size {
		t.Errorf("segment is %d bytes (durable size %d), want %d", fileSize(t, SegmentFile(dir, 1)), durable, size)
	}
	s.Unfence()
	if err := s.Append([]byte("after")); err != nil {
		t.Fatalf("append after Unfence: %v", err)
	}
	if got := fmt.Sprint(collectRecords(t, dir)); got != "[acked after]" {
		t.Errorf("replayed %s", got)
	}
	if st := s.Stats(); st.AppendErrors != 3 || st.Appends != 2 {
		t.Errorf("stats = %+v, want 3 append errors and 2 appends", st)
	}
}

// TestFaultFenceSegmented: the fence of a failed batch holds across a
// rotation — a batch enqueued before Unfence fails in the next segment
// too and leaves it empty — and Unfence lifts it.
func TestFaultFenceSegmented(t *testing.T) {
	s, dir := openTest(t)
	defer s.Close()
	if err := s.Append([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	failNextWrite(s)
	if err := s.Append([]byte("failed")); err == nil || errors.Is(err, ErrFenced) {
		t.Fatalf("append over a failing write: %v", err)
	}
	if err := s.Append([]byte("built on it")); !errors.Is(err, ErrFenced) {
		t.Fatalf("append after the failed one: %v, want ErrFenced", err)
	}
	sealed, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch([][]byte{[]byte("still"), []byte("fenced")}); !errors.Is(err, ErrFenced) {
		t.Fatalf("batch in the next segment: %v, want ErrFenced", err)
	}
	if got := fileSize(t, SegmentFile(dir, sealed+1)); got != 0 {
		t.Errorf("the next segment holds %d bytes of refused batches", got)
	}
	s.Unfence()
	if err := s.Append([]byte("after")); err != nil {
		t.Fatalf("append after Unfence: %v", err)
	}
	if got := fmt.Sprint(collectRecords(t, dir)); got != "[acked after]" {
		t.Errorf("replayed %s", got)
	}
}
