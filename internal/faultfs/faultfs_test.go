package faultfs

import (
	"errors"
	"os"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/durable"
	"timedmedia/internal/wal"
)

func TestNthOpFires(t *testing.T) {
	inj := NewInjector(Rule{Op: "create", Nth: 2})
	s := Wrap(blob.NewMemStore(), inj)

	if _, _, err := s.Create(); err != nil {
		t.Fatalf("1st create: %v", err)
	}
	if _, _, err := s.Create(); !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd create: %v", err)
	}
	if _, _, err := s.Create(); err != nil {
		t.Fatalf("3rd create: %v", err)
	}
	if inj.Fired() != 1 {
		t.Errorf("fired = %d", inj.Fired())
	}
}

func TestTimesSemantics(t *testing.T) {
	// Times: 1 → fires on calls 2 and 3.
	inj := NewInjector(Rule{Op: "open", Nth: 2, Times: 1})
	s := Wrap(blob.NewMemStore(), inj)
	id, _, _ := s.Create()
	var errs []bool
	for i := 0; i < 4; i++ {
		_, err := s.Open(id)
		errs = append(errs, err != nil)
	}
	want := []bool{false, true, true, false}
	for i := range want {
		if errs[i] != want[i] {
			t.Errorf("open %d: failed=%v, want %v", i+1, errs[i], want[i])
		}
	}

	// Times: -1 → fires forever from Nth.
	inj2 := NewInjector(Rule{Op: "ids", Nth: 1, Times: -1})
	s2 := Wrap(blob.NewMemStore(), inj2)
	for i := 0; i < 3; i++ {
		if _, err := s2.IDs(); !errors.Is(err, ErrInjected) {
			t.Errorf("ids %d: %v", i+1, err)
		}
	}
}

func TestShortAppendTearsWrite(t *testing.T) {
	inner := blob.NewMemStore()
	inj := NewInjector(Rule{Op: "append", Nth: 1, Short: true})
	s := Wrap(inner, inj)

	id, b, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append([]byte("0123456789")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append: %v", err)
	}
	// Half the bytes landed in the underlying blob — a torn write.
	raw, err := inner.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Size() != 5 {
		t.Errorf("torn size = %d, want 5", raw.Size())
	}
}

func TestTransientClassification(t *testing.T) {
	err := Transient()
	if !errors.Is(err, ErrInjected) || !durable.IsTransient(err) {
		t.Errorf("Transient() = %v", err)
	}
	if durable.IsTransient(ErrInjected) {
		t.Error("bare ErrInjected must not be transient")
	}
}

func TestCustomError(t *testing.T) {
	boom := errors.New("boom")
	inj := NewInjector(Rule{Op: "delete", Nth: 1, Err: boom})
	s := Wrap(blob.NewMemStore(), inj)
	if err := s.Delete(1); !errors.Is(err, boom) {
		t.Errorf("delete: %v", err)
	}
}

func TestJournalWrapper(t *testing.T) {
	dir := t.TempDir()
	inner, err := wal.OpenSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(
		Rule{Op: "journal.append", Nth: 2},
		Rule{Op: "journal.rotate", Nth: 1},
		Rule{Op: "journal.compact", Nth: 1})
	j := WrapJournal(inner, inj)
	var _ wal.Appender = j

	if err := j.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("second")); !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd append: %v", err)
	}
	// Only the first record reached disk.
	var got int
	if _, err := wal.ReplaySegments(dir, func([]byte) error { got++; return nil }); err != nil || got != 1 {
		t.Fatalf("replayed %d records, %v", got, err)
	}

	if _, err := j.Rotate(); !errors.Is(err, ErrInjected) {
		t.Fatalf("1st rotate: %v", err)
	}
	sealed, err := j.Rotate()
	if err != nil || sealed != 1 {
		t.Fatalf("2nd rotate: sealed %d, %v", sealed, err)
	}
	if _, err := j.CompactThrough(sealed); !errors.Is(err, ErrInjected) {
		t.Fatalf("1st compact: %v", err)
	}
	if n, err := j.CompactThrough(sealed); err != nil || n != 1 {
		t.Fatalf("2nd compact: removed %d, %v", n, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(wal.SegmentFile(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("compacted segment still present: %v", err)
	}
}
