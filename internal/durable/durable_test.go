package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	os.WriteFile(path, []byte("garbage"), 0o644)
	q1, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("original still present")
	}
	// A second quarantine must not overwrite the first.
	os.WriteFile(path, []byte("more garbage"), 0o644)
	q2, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if q1 == q2 {
		t.Errorf("quarantine reused name %q", q1)
	}
	for _, q := range []string{q1, q2} {
		if _, err := os.Stat(q); err != nil {
			t.Errorf("quarantined file %s: %v", q, err)
		}
	}
}

func TestRetryTransient(t *testing.T) {
	calls := 0
	err := Retry(4, time.Microsecond, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("flaky: %w", ErrTransient)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("err=%v calls=%d", err, calls)
	}

	// Non-transient errors do not retry.
	calls = 0
	permanent := errors.New("disk on fire")
	if err := Retry(4, time.Microsecond, func() error { calls++; return permanent }); err != permanent || calls != 1 {
		t.Errorf("permanent: err=%v calls=%d", err, calls)
	}

	// Exhaustion returns the last transient error.
	calls = 0
	if err := Retry(3, time.Microsecond, func() error {
		calls++
		return ErrTransient
	}); !IsTransient(err) || calls != 3 {
		t.Errorf("exhaustion: err=%v calls=%d", err, calls)
	}
}

// TestReplaceFileRenameFailureLeavesNoTmp: when the final rename fails
// — path is a non-empty directory — ReplaceFile returns the error and
// removes path.tmp, as every earlier failure branch does.
func TestReplaceFileRenameFailureLeavesNoTmp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := ReplaceFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new generation"))
		return err
	})
	if err == nil {
		t.Fatal("a file renamed over a non-empty directory")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("tmp file survives a failed rename: %v", err)
	}
}
