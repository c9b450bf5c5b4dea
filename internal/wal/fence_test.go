package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// failNextWrite arms j's file to fail its next write.
func failNextWrite(j *Journal) {
	j.mu.Lock()
	j.f = &failingFile{segmentFile: j.f, armed: true}
	j.mu.Unlock()
}

// replayed returns the records dir's segments hold, in order.
func replayed(t *testing.T, dir string) string {
	t.Helper()
	var recs []string
	if _, err := ReplaySegments(dir, func(d []byte) error {
		recs = append(recs, string(d))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(recs)
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

// TestFaultFenceJournal: after a failed batch a Journal refuses every
// batch enqueued before Unfence, writing nothing, and takes appends
// again after it.
func TestFaultFenceJournal(t *testing.T) {
	path := journalPath(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	size := fileSize(t, path)
	failNextWrite(j)
	if err := j.Append([]byte("failed")); err == nil || errors.Is(err, ErrFenced) {
		t.Fatalf("append over a failing write: %v", err)
	}
	if err := j.AppendBatch([][]byte{[]byte("built"), []byte("on it")}); !errors.Is(err, ErrFenced) {
		t.Fatalf("batch after the failed one: %v, want ErrFenced", err)
	}
	if got := fileSize(t, path); got != size || j.Size() != size {
		t.Errorf("segment is %d bytes (durable size %d), want %d", got, j.Size(), size)
	}
	j.Unfence()
	if err := j.Append([]byte("after")); err != nil {
		t.Fatalf("append after Unfence: %v", err)
	}
	if got := replayed(t, filepath.Dir(path)); got != "[acked after]" {
		t.Errorf("replayed %s", got)
	}
}

// TestFaultFenceSegmented: the fence of a failed batch holds across a
// rotation — a batch enqueued before Unfence fails in the next segment
// too and leaves it empty — and Unfence lifts it.
func TestFaultFenceSegmented(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	failNextWrite(s.active)
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
	if got := replayed(t, dir); got != "[acked after]" {
		t.Errorf("replayed %s", got)
	}
}
