package wal

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return SegmentFile(t.TempDir(), 1)
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		rec := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, rec)
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	res, err := Replay(path, func(data []byte) error {
		got = append(got, append([]byte(nil), data...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || res.Records != 10 {
		t.Fatalf("replay = %+v", res)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	res, err := Replay(journalPath(t), func([]byte) error {
		t.Fatal("callback on missing journal")
		return nil
	})
	if err != nil || res.Records != 0 || res.Torn {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestReplayTornTail(t *testing.T) {
	path := journalPath(t)
	j, _ := Open(path)
	j.Append([]byte("intact-1"))
	j.Append([]byte("intact-2"))
	j.Append([]byte("doomed"))
	j.Close()

	// Chop mid-way through the last record, as a crash mid-append
	// would.
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	var got int
	res, err := Replay(path, func([]byte) error { got++; return nil })
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
	path := journalPath(t)
	j, _ := Open(path)
	j.Append([]byte("intact"))
	j.Append([]byte("doomed"))
	j.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	res, err := Replay(path, func([]byte) error { return nil })
	if err != nil || !res.Torn {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if err := TruncateAt(path, res.TornOffset); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append([]byte("after-recovery")); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	var got []string
	res2, err := Replay(path, func(d []byte) error { got = append(got, string(d)); return nil })
	if err != nil || res2.Torn {
		t.Fatalf("res=%+v err=%v", res2, err)
	}
	if len(got) != 2 || got[0] != "intact" || got[1] != "after-recovery" {
		t.Fatalf("got = %q (post-recovery append lost to old tear?)", got)
	}
}

func TestTruncateAtMissingFileIsNoOp(t *testing.T) {
	if err := TruncateAt(journalPath(t), 0); err != nil {
		t.Fatal(err)
	}
}

func TestReplayCorruptRecordStops(t *testing.T) {
	path := journalPath(t)
	j, _ := Open(path)
	j.Append([]byte("good"))
	j.Append([]byte("soon to be bad"))
	j.Close()

	// Flip a payload byte in the second record.
	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	var got int
	res, _ := Replay(path, func([]byte) error { got++; return nil })
	if got != 1 || !res.Torn {
		t.Fatalf("got=%d res=%+v", got, res)
	}
}

func TestAppendAfterClose(t *testing.T) {
	j, _ := Open(journalPath(t))
	j.Close()
	if err := j.Append([]byte("x")); err != ErrClosed {
		t.Errorf("err = %v", err)
	}
	if s := j.Stats(); s.AppendErrors != 1 {
		t.Errorf("append errors = %d", s.AppendErrors)
	}
}

func TestReplayRejectsGiantLength(t *testing.T) {
	path := journalPath(t)
	// Hand-craft a frame whose length field is absurd.
	frame := make([]byte, 12)
	frame[0], frame[1], frame[2], frame[3] = 0x57, 0x41, 0x4C, 0x31
	frame[4], frame[5], frame[6], frame[7] = 0xFF, 0xFF, 0xFF, 0xFF
	os.WriteFile(path, frame, 0o644)
	res, err := Replay(path, func([]byte) error { t.Fatal("applied"); return nil })
	if err != nil || !res.Torn {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}
