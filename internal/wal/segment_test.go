package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

func collectRecords(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	if _, err := ReplaySegments(dir, func(d []byte) error {
		out = append(out, string(d))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSegmentedAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Append([]byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendBatch([][]byte{[]byte("b0"), []byte("b1")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs := collectRecords(t, dir)
	if len(recs) != 12 || recs[0] != "rec0" || recs[11] != "b1" {
		t.Fatalf("recs = %v", recs)
	}
}

// TestSegmentedRotationByRecords: crossing the record threshold seals
// the segment; records land across multiple files but replay in order.
func TestSegmentedRotationByRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		if err := s.Append([]byte(fmt.Sprintf("r%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Rotations; got < 2 {
		t.Errorf("rotations = %d, want >= 2", got)
	}
	idxs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) < 3 {
		t.Fatalf("segments = %v, want >= 3", idxs)
	}
	s.Close()
	recs := collectRecords(t, dir)
	if len(recs) != 11 {
		t.Fatalf("replayed %d records, want 11", len(recs))
	}
	for i, r := range recs {
		if r != fmt.Sprintf("r%02d", i) {
			t.Fatalf("recs[%d] = %q (order broken across rotation)", i, r)
		}
	}
}

// TestSegmentedExplicitRotateBoundary: records appended before Rotate
// live in segments <= the returned index; records after live beyond
// it. CompactThrough then removes exactly the covered prefix.
func TestSegmentedExplicitRotateBoundary(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Append([]byte("before1"))
	s.Append([]byte("before2"))
	sealed, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	s.Append([]byte("after"))

	// Everything <= sealed holds only the "before" records.
	var pre []string
	for idx := uint64(1); idx <= sealed; idx++ {
		Replay(SegmentFile(dir, idx), func(d []byte) error {
			pre = append(pre, string(d))
			return nil
		})
	}
	if len(pre) != 2 {
		t.Fatalf("prefix records = %v", pre)
	}

	n, err := s.CompactThrough(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("compacted %d segments, want 1", n)
	}
	s.Close()
	recs := collectRecords(t, dir)
	if len(recs) != 1 || recs[0] != "after" {
		t.Fatalf("post-compaction records = %v", recs)
	}
	if st := s.Stats(); st.SegmentsCompacted != 1 {
		t.Errorf("SegmentsCompacted = %d", st.SegmentsCompacted)
	}
}

// TestSegmentedCompactNeverDeletesActive: a compaction bound at or
// beyond the active index must leave the active segment alone.
func TestSegmentedCompactNeverDeletesActive(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Append([]byte("live"))
	if _, err := s.CompactThrough(99); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.ActivePath()); err != nil {
		t.Fatalf("active segment deleted by compaction: %v", err)
	}
	recs := collectRecords(t, dir)
	if len(recs) != 1 {
		t.Fatalf("records = %v", recs)
	}
}

// TestSegmentedReopenResumesHighest: reopening a directory continues
// appending to the highest segment, and replay sees everything.
func TestSegmentedReopenResumesHighest(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, WithSegmentRecords(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Append([]byte(fmt.Sprintf("a%d", i)))
	}
	high := s.ActiveIndex()
	s.Close()

	s2, err := OpenSegmented(dir, WithSegmentRecords(2))
	if err != nil {
		t.Fatal(err)
	}
	if s2.ActiveIndex() != high {
		t.Fatalf("reopened at segment %d, want %d", s2.ActiveIndex(), high)
	}
	s2.Append([]byte("b0"))
	s2.Close()
	recs := collectRecords(t, dir)
	if len(recs) != 6 || recs[5] != "b0" {
		t.Fatalf("recs = %v", recs)
	}
}

// TestSegmentedConcurrentAppendsAcrossRotation: concurrent appenders
// racing size-triggered rotations lose no records and tear no frames.
// Run with -race.
func TestSegmentedConcurrentAppendsAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, WithSegmentRecords(8))
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()
	seen := map[string]bool{}
	results, err := ReplaySegments(dir, func(d []byte) error {
		seen[string(d)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Torn {
			t.Errorf("segment %d torn after clean close", r.Index)
		}
	}
	if len(seen) != workers*per {
		t.Fatalf("replayed %d unique records, want %d", len(seen), workers*per)
	}
}

// TestSegmentedTornTailInLastSegment: a crash mid-append tears only
// the last segment; earlier segments replay clean and the caller can
// truncate the tear at the reported offset.
func TestSegmentedTornTailInLastSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, WithSegmentRecords(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Append([]byte(fmt.Sprintf("rec%d", i)))
	}
	last := s.ActivePath()
	s.Close()
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-2); err != nil {
		t.Fatal(err)
	}

	var recs []string
	results, err := ReplaySegments(dir, func(d []byte) error {
		recs = append(recs, string(d))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lastRes := results[len(results)-1]
	if !lastRes.Torn {
		t.Fatal("tear not reported")
	}
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4 (intact prefix)", len(recs))
	}
	if err := TruncateAt(SegmentFile(dir, lastRes.Index), lastRes.TornOffset); err != nil {
		t.Fatal(err)
	}
	// After truncation a reopen appends at a clean boundary.
	s2, err := OpenSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.Append([]byte("recovered"))
	s2.Close()
	recs = collectRecords(t, dir)
	if len(recs) != 5 || recs[4] != "recovered" {
		t.Fatalf("post-recovery records = %v", recs)
	}
}

// TestRotateEscapesFailedSegment: a segment whose rollback truncate
// failed refuses appends (ErrFailed) with a partial frame at its tail;
// Rotate seals it, appends succeed in the next segment, and replay
// reports the sealed segment's tear so recovery truncates it.
func TestRotateEscapesFailedSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	// What a failed append followed by a failed rollback leaves: half a
	// frame past the acknowledged boundary, and the segment marked.
	frame := appendFrame(nil, []byte("never acknowledged"))
	s.active.mu.Lock()
	_, werr := s.active.f.Write(frame[:len(frame)/2])
	s.active.failed = errors.New("rollback truncate: injected")
	s.active.mu.Unlock()
	if werr != nil {
		t.Fatal(werr)
	}
	if err := s.Append([]byte("refused")); !errors.Is(err, ErrFailed) {
		t.Fatalf("append to failed segment: %v, want ErrFailed", err)
	}

	sealed, err := s.Rotate()
	if err != nil {
		t.Fatalf("rotate out of the failed segment: %v", err)
	}
	if err := s.Append([]byte("after rotate")); err != nil {
		t.Fatalf("append in the next segment: %v", err)
	}

	var recs []string
	results, err := ReplaySegments(dir, func(d []byte) error {
		recs = append(recs, string(d))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(recs) != "[acked after rotate]" {
		t.Fatalf("replayed %v", recs)
	}
	if len(results) != 2 || results[0].Index != sealed || !results[0].Torn || results[1].Torn {
		t.Fatalf("replay results = %+v, want a tear in sealed segment %d only", results, sealed)
	}
	if err := TruncateAt(SegmentFile(dir, sealed), results[0].TornOffset); err != nil {
		t.Fatal(err)
	}
	if results, _ = ReplaySegments(dir, func([]byte) error { return nil }); results[0].Torn || results[0].Records != 1 {
		t.Fatalf("after truncating the tear: %+v", results)
	}
}

func TestParseSegmentIndex(t *testing.T) {
	cases := []struct {
		name string
		idx  uint64
		ok   bool
	}{
		{"journal.000001.log", 1, true},
		{"journal.000017.log", 17, true},
		{"journal.1000000.log", 1000000, true},
		{"journal..log", 0, false},       // no index
		{"journal.000000.log", 0, false}, // index 0 is invalid
		{"journal.00001.log", 0, false},  // too short
		{"journal.abc.log", 0, false},
		{"catalog.gob", 0, false},
	}
	for _, c := range cases {
		idx, ok := ParseSegmentIndex(c.name)
		if ok != c.ok || idx != c.idx {
			t.Errorf("ParseSegmentIndex(%q) = %d,%v want %d,%v", c.name, idx, ok, c.idx, c.ok)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{CheckpointSeq: 12345, Checkpoints: []uint64{1, 2, 7}, OldestSegment: 18}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.CheckpointSeq != m.CheckpointSeq || got.OldestSegment != m.OldestSegment ||
		len(got.Checkpoints) != 3 || got.Checkpoints[2] != 7 {
		t.Fatalf("manifest = %+v", got)
	}
	// Rewrite replaces atomically.
	if err := WriteManifest(dir, &Manifest{CheckpointSeq: 99999, OldestSegment: 20}); err != nil {
		t.Fatal(err)
	}
	got, err = LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.CheckpointSeq != 99999 || len(got.Checkpoints) != 0 {
		t.Fatalf("rewritten manifest = %+v", got)
	}
	// The manifest is the only file a rewrite leaves: no tmp, no backup.
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %d files after a rewrite, want MANIFEST only", len(entries))
	}
}

func TestManifestMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	m, err := LoadManifest(dir)
	if err != nil || m != nil {
		t.Fatalf("missing manifest: %v %v", m, err)
	}
	if err := WriteManifest(dir, &Manifest{CheckpointSeq: 5, OldestSegment: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ManifestFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(ManifestFile(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err == nil {
		t.Fatal("corrupt manifest decoded")
	}
}
