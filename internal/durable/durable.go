// Package durable provides crash-safe file persistence primitives for
// the catalog: the one length + CRC-32C frame codec every checksummed
// format is a prefix over (frame.go), a chunked, DEFLATE-packed
// snapshot container built on it (stream.go),
// the one atomic file replacement every durable file goes through
// (ReplaceFile), quarantine of corrupt files, directory locks, and
// retry-with-backoff for transient store errors. It imports nothing
// internal, so the journal and the catalog both build on it.
//
// The paper argues media belongs in the database rather than in opaque
// files; a database that loses data on power failure is no database at
// all. Every write here follows the classic sequence: write tmp,
// fsync(tmp), rename(tmp, target), fsync(parent dir). A crash at any
// point leaves either the old file or the new one — never a torn
// target. Keeping an older generation is the caller's business: the
// catalog keeps the previous full capture as a file of its own.
package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Errors.
var (
	// ErrCorrupt reports a snapshot container that failed validation:
	// truncated, bit-flipped, torn mid-write, or not a container at all.
	ErrCorrupt = errors.New("durable: corrupt snapshot")
	// ErrTransient marks an error worth retrying: wrap injected or
	// environmental failures in it (errors.Is) to opt into Retry.
	ErrTransient = errors.New("durable: transient error")
)

// SyncDir fsyncs a directory so a preceding rename inside it is
// durable. Some filesystems reject directory fsync; those errors are
// reported, not ignored, because the caller's durability claim
// depends on it.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: sync %s: %w", dir, err)
	}
	return nil
}

// ReplaceFile durably replaces path with what write produces: write
// streams into path.tmp, the tmp is fsynced and renamed into place, and
// the parent directory is fsynced. After a crash at any point path
// holds a complete state, the previous one or the new one; after a
// failure at any step no path.tmp is left behind.
func ReplaceFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("durable: sync %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: %w", err)
	}
	return SyncDir(filepath.Dir(path))
}

// Quarantine moves a corrupt file aside (path -> path.corrupt,
// numbered if that already exists) so recovery never silently
// destroys forensic evidence. It returns the quarantine path.
func Quarantine(path string) (string, error) {
	dst := path + ".corrupt"
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s.corrupt.%d", path, i)
	}
	if err := os.Rename(path, dst); err != nil {
		return "", fmt.Errorf("durable: quarantine: %w", err)
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		return dst, err
	}
	return dst, nil
}

// IsTransient reports whether err is marked retryable via
// ErrTransient.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Retry runs f up to attempts times, sleeping base, 2*base, 4*base...
// between tries, as long as the failure is transient (IsTransient).
// A nil return, a non-transient error, or attempt exhaustion ends the
// loop; the last error is returned.
func Retry(attempts int, base time.Duration, f func() error) error {
	var err error
	delay := base
	for i := 0; i < attempts; i++ {
		if err = f(); err == nil || !IsTransient(err) {
			return err
		}
		if i < attempts-1 {
			time.Sleep(delay)
			delay *= 2
		}
	}
	return err
}
