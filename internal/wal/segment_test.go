package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

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

// TestSegmentedRotationByBytes: crossing the byte bound seals the
// segment; records land across multiple files but replay in order.
func TestSegmentedRotationByBytes(t *testing.T) {
	// A record "rNN" is a 15-byte frame: four fill a segment.
	s, dir := openTest(t, WithSegmentBytes(60))
	for i := 0; i < 11; i++ {
		if err := s.Append([]byte(fmt.Sprintf("r%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Rotations; got != 2 {
		t.Errorf("rotations = %d, want 2", got)
	}
	idxs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) != 3 {
		t.Fatalf("segments = %v, want 3", idxs)
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
		replayFile(SegmentFile(dir, idx), func(d []byte) error {
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

// TestRotateCommitsQueuedTickets: a ticket enqueued before Rotate and
// waited on only after it was committed by the rotation into the
// sealed segment — its records replay from a segment at or below the
// sealed index — while one enqueued after Rotate lands beyond it.
func TestRotateCommitsQueuedTickets(t *testing.T) {
	s, dir := openTest(t)
	defer s.Close()
	one := s.Enqueue([]byte("queued"))
	batch := s.EnqueueBatch([][]byte{[]byte("queued-b0"), []byte("queued-b1")})
	sealed, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	later := s.Enqueue([]byte("later"))
	for _, tk := range []*Ticket{one, batch, later, one} {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	results, err := ReplaySegments(dir, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Index != sealed || results[0].Records != 3 ||
		results[1].Index != sealed+1 || results[1].Records != 1 {
		t.Fatalf("replay results = %+v, want 3 records in sealed segment %d and 1 after", results, sealed)
	}
}

// TestFailedRotateKeepsActiveSegment: a rotation that cannot open the
// next segment fails, and appends — explicit or past the byte bound —
// continue in the old one.
func TestFailedRotateKeepsActiveSegment(t *testing.T) {
	s, dir := openTest(t, WithSegmentBytes(1))
	defer s.Close()
	// A directory where the next segment file would go: it cannot be
	// opened for appending.
	if err := os.Mkdir(SegmentFile(dir, 2), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rotate(); err == nil {
		t.Fatal("rotate into an unopenable segment succeeded")
	}
	for _, r := range []string{"one", "two"} {
		if err := s.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if idx, _ := s.DurableBoundary(); idx != 1 || s.Stats().Rotations != 0 {
		t.Fatalf("active segment %d after %d rotations, want 1 and 0", idx, s.Stats().Rotations)
	}
	if got := fmt.Sprint(collectRecords(t, dir)); got != "[one two]" {
		t.Fatalf("replayed %s", got)
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
	if idx, _ := s.DurableBoundary(); idx != 1 {
		t.Fatalf("active segment = %d, want 1", idx)
	}
	if _, err := os.Stat(SegmentFile(dir, 1)); err != nil {
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
	// A record "aN" is a 14-byte frame: two fill a segment.
	s, dir := openTest(t, WithSegmentBytes(28))
	for i := 0; i < 5; i++ {
		s.Append([]byte(fmt.Sprintf("a%d", i)))
	}
	high, size := s.DurableBoundary()
	s.Close()
	if high != 3 || size != 14 {
		t.Fatalf("active segment %d holds %d bytes, want 3 and 14", high, size)
	}

	s2, err := OpenSegmented(dir, WithSegmentBytes(28))
	if err != nil {
		t.Fatal(err)
	}
	if idx, size2 := s2.DurableBoundary(); idx != high || size2 != size {
		t.Fatalf("reopened at segment %d size %d, want %d size %d", idx, size2, high, size)
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
	s, dir := openTest(t, WithSegmentBytes(128))
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
	if len(results) < 3 {
		t.Errorf("%d segments, want several rotations", len(results))
	}
}

// TestSegmentedTornTailInLastSegment: a crash mid-append tears only
// the last segment; earlier segments replay clean and the caller can
// truncate the tear at the reported offset.
func TestSegmentedTornTailInLastSegment(t *testing.T) {
	// A record "recN" is a 16-byte frame: two fill a segment.
	s, dir := openTest(t, WithSegmentBytes(32))
	for i := 0; i < 5; i++ {
		s.Append([]byte(fmt.Sprintf("rec%d", i)))
	}
	last, _ := s.DurableBoundary()
	s.Close()
	chop(t, SegmentFile(dir, last), 2)

	var recs []string
	results, err := ReplaySegments(dir, func(d []byte) error {
		recs = append(recs, string(d))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lastRes := results[len(results)-1]
	if !lastRes.Torn || lastRes.Index != last {
		t.Fatalf("tear not reported in the last segment: %+v", results)
	}
	for _, r := range results[:len(results)-1] {
		if r.Torn {
			t.Errorf("sealed segment %d torn", r.Index)
		}
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
	s.mu.Lock()
	_, werr := s.f.Write(frame[:len(frame)/2])
	s.failed = errors.New("rollback truncate: injected")
	s.mu.Unlock()
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
