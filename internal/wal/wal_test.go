package wal

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// openTest opens a segmented journal in a fresh directory.
func openTest(t *testing.T, opts ...SegmentedOption) (*Segmented, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenSegmented(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// collectRecords returns the records dir's segments hold, in order.
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

// chop cuts n bytes off the end of path, as a crash mid-append would.
func chop(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	s, dir := openTest(t)
	var want [][]byte
	for i := 0; i < 10; i++ {
		rec := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, rec)
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	res, err := ReplaySegments(dir, func(data []byte) error {
		got = append(got, append([]byte(nil), data...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Torn || res[0].Records != 10 {
		t.Fatalf("replay = %+v", res)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	dir := t.TempDir()
	res, err := replayFile(SegmentFile(dir, 1), func([]byte) error {
		t.Fatal("callback on missing segment")
		return nil
	})
	if err != nil || res.Records != 0 || res.Torn {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if results, err := ReplaySegments(dir+"/missing", nil); err != nil || len(results) != 0 {
		t.Fatalf("missing directory: %+v, %v", results, err)
	}
}

func TestReplayTornTail(t *testing.T) {
	s, dir := openTest(t)
	s.Append([]byte("intact-1"))
	s.Append([]byte("intact-2"))
	s.Append([]byte("doomed"))
	s.Close()
	chop(t, SegmentFile(dir, 1), 3)

	var got int
	res, err := replayFile(SegmentFile(dir, 1), func([]byte) error { got++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 || res.Records != 2 || !res.Torn {
		t.Fatalf("got=%d res=%+v", got, res)
	}
}

// TestTruncateAtEnablesAppendAfterTear covers the double-crash
// scenario: a torn tail must be cut off before the journal is reopened
// for appending, or records appended after recovery land past the
// garbage and are dropped by the next replay.
func TestTruncateAtEnablesAppendAfterTear(t *testing.T) {
	s, dir := openTest(t)
	s.Append([]byte("intact"))
	s.Append([]byte("doomed"))
	s.Close()
	path := SegmentFile(dir, 1)
	chop(t, path, 3)

	res, err := replayFile(path, func([]byte) error { return nil })
	if err != nil || !res.Torn {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if err := TruncateAt(path, res.TornOffset); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Append([]byte("after-recovery")); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	if got := collectRecords(t, dir); fmt.Sprint(got) != "[intact after-recovery]" {
		t.Fatalf("got = %q (post-recovery append lost to old tear?)", got)
	}
}

func TestTruncateAtMissingFileIsNoOp(t *testing.T) {
	if err := TruncateAt(SegmentFile(t.TempDir(), 1), 0); err != nil {
		t.Fatal(err)
	}
}

func TestReplayCorruptRecordStops(t *testing.T) {
	s, dir := openTest(t)
	s.Append([]byte("good"))
	s.Append([]byte("soon to be bad"))
	s.Close()

	// Flip a payload byte in the second record.
	path := SegmentFile(dir, 1)
	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	var got int
	res, _ := replayFile(path, func([]byte) error { got++; return nil })
	if got != 1 || !res.Torn {
		t.Fatalf("got=%d res=%+v", got, res)
	}
}

func TestAppendAfterClose(t *testing.T) {
	s, _ := openTest(t)
	s.Close()
	if err := s.Append([]byte("x")); err != ErrClosed {
		t.Errorf("err = %v", err)
	}
	if st := s.Stats(); st.AppendErrors != 1 {
		t.Errorf("append errors = %d", st.AppendErrors)
	}
	if _, err := s.Rotate(); err != ErrClosed {
		t.Errorf("rotate after close: %v", err)
	}
	if _, err := s.CompactThrough(1); err != ErrClosed {
		t.Errorf("compact after close: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Errorf("sync after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestReplayRejectsGiantLength(t *testing.T) {
	path := SegmentFile(t.TempDir(), 1)
	// Hand-craft a frame whose length field is absurd.
	frame := make([]byte, 12)
	frame[0], frame[1], frame[2], frame[3] = 0x57, 0x41, 0x4C, 0x31
	frame[4], frame[5], frame[6], frame[7] = 0xFF, 0xFF, 0xFF, 0xFF
	os.WriteFile(path, frame, 0o644)
	res, err := replayFile(path, func([]byte) error { t.Fatal("applied"); return nil })
	if err != nil || !res.Torn {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}
