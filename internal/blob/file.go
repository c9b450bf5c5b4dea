package blob

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// FileStore is a Store backed by one file per BLOB inside a directory.
// It persists across process restarts: opening an existing directory
// rediscovers its BLOBs. Safe for concurrent use.
type FileStore struct {
	mu    sync.Mutex
	dir   string
	next  ID
	open  map[ID]*fileBLOB
	stats Stats
}

// OpenFileStore opens (creating if necessary) a file-backed store in
// dir.
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	s := &FileStore{dir: dir, next: 1, open: map[ID]*fileBLOB{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	for _, e := range entries {
		id, ok := parseBlobName(e.Name())
		if !ok {
			continue
		}
		if id >= s.next {
			s.next = id + 1
		}
	}
	return s, nil
}

// Dir returns the directory the store keeps its BLOB files in.
func (s *FileStore) Dir() string { return s.dir }

// ListedIDs returns the BLOB IDs among the names of a FileStore's
// directory, ascending: what IDs returns, from a listing the caller
// took.
func ListedIDs(names []string) []ID {
	var out []ID
	for _, name := range names {
		if id, ok := parseBlobName(name); ok {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func blobName(id ID) string { return fmt.Sprintf("%d.blob", uint64(id)) }

func parseBlobName(name string) (ID, bool) {
	base, ok := strings.CutSuffix(name, ".blob")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return ID(n), true
}

func (s *FileStore) path(id ID) string { return filepath.Join(s.dir, blobName(id)) }

// Create implements Store.
func (s *FileStore) Create() (ID, BLOB, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	f, err := os.OpenFile(s.path(id), os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
	if err != nil {
		return 0, nil, fmt.Errorf("blob: %w", err)
	}
	b, err := s.adopt(id, f)
	if err != nil {
		return 0, nil, err
	}
	return id, b, nil
}

// Open implements Store. The first open of a file in this process
// verifies its payload against the CRC sidecar (when one exists); a
// mismatch quarantines the file and returns ErrCorrupt instead of
// serving rotted bytes. Cached handles were verified when first
// opened.
func (s *FileStore) Open(id ID) (BLOB, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.open[id]; ok {
		return b, nil
	}
	path := s.path(id)
	if err := verifySidecar(path); err != nil {
		if errors.Is(err, ErrCorrupt) {
			quarantine(path)
			s.stats.Corruptions.Add(1)
			return nil, err
		}
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
		}
		return nil, fmt.Errorf("blob: %w", err)
	}
	return s.adopt(id, f)
}

// adopt caches an opened file as id's handle, reading its size once:
// from here on the handle is the file's only writer and tracks its
// size itself. Assumes s.mu is held.
func (s *FileStore) adopt(id ID, f *os.File) (*fileBLOB, error) {
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blob: %w", err)
	}
	b := &fileBLOB{f: f, size: fi.Size(), stats: &s.stats}
	s.open[id] = b
	return b, nil
}

// Reserve implements Store.
func (s *FileStore) Reserve(next ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next = max(s.next, next)
}

// Delete implements Store.
func (s *FileStore) Delete(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.open[id]; ok {
		b.close()
		delete(s.open, id)
	}
	if err := os.Remove(s.path(id)); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %v", ErrNotFound, id)
		}
		return fmt.Errorf("blob: %w", err)
	}
	os.Remove(SidecarFile(s.path(id)))
	return nil
}

// IDs implements Store. A ReadDir failure is propagated rather than
// reported as an empty store: callers must be able to tell "no BLOBs"
// from "directory unreadable".
func (s *FileStore) IDs() ([]ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, err := os.Open(s.dir)
	if err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	defer d.Close()
	names, err := d.Readdirnames(-1)
	if err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	return ListedIDs(names), nil
}

// Sync flushes a BLOB's appended bytes to stable storage. BLOBs that
// were never opened in this process have nothing buffered and sync
// trivially. The catalog calls this before journaling an
// interpretation record, so replay never references bytes that died
// in the page cache. Sync is the seal point of a payload — the
// catalog never appends to a blob after its interpretation is
// journaled — so the CRC sidecar is written here, covering exactly
// the synced bytes.
func (s *FileStore) Sync(id ID) error {
	s.mu.Lock()
	b, ok := s.open[id]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return ErrClosed
	}
	if err := b.f.Sync(); err != nil {
		return fmt.Errorf("blob: sync %v: %w", id, err)
	}
	crc, size, err := b.checksumLocked()
	if err != nil {
		return fmt.Errorf("blob: sync %v: %w", id, err)
	}
	// The sidecar itself is not fsynced: losing it in a crash merely
	// skips verification, which is the safe direction.
	return WriteSidecar(s.path(id), crc, size)
}

// Stats implements Store.
func (s *FileStore) Stats() *Stats { return &s.stats }

// Close releases all open file handles.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for id, b := range s.open {
		if err := b.close(); err != nil && first == nil {
			first = err
		}
		delete(s.open, id)
	}
	return first
}

// fileBLOB is one open BLOB file. size is the file's length: read once
// when the handle is made, then advanced by every byte Append writes.
type fileBLOB struct {
	mu    sync.Mutex
	f     *os.File
	size  int64
	stats *Stats
}

// ReadSpan implements BLOB.
func (b *fileBLOB) ReadSpan(off, n int64) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return nil, ErrClosed
	}
	if err := checkSpan(off, n, b.size); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if _, err := b.f.ReadAt(out, off); err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	b.stats.Reads.Add(1)
	b.stats.BytesRead.Add(n)
	return out, nil
}

// Append implements BLOB.
func (b *fileBLOB) Append(data []byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return 0, ErrClosed
	}
	off := b.size
	n, err := b.f.WriteAt(data, off)
	if err != nil {
		// A write that failed part way may still have lengthened the
		// file, and os.File.WriteAt does not count those bytes: ask the
		// file, so the next append lands at its real end.
		if fi, serr := b.f.Stat(); serr == nil {
			b.size = fi.Size()
		}
		return 0, fmt.Errorf("blob: %w", err)
	}
	b.size += int64(n)
	b.stats.Appends.Add(1)
	b.stats.BytesAppended.Add(int64(len(data)))
	return off, nil
}

// Size implements BLOB.
func (b *fileBLOB) Size() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return 0
	}
	return b.size
}

// checksumLocked computes the CRC32C and size of the whole file.
// Assumes b.mu is held.
func (b *fileBLOB) checksumLocked() (uint32, int64, error) {
	fi, err := b.f.Stat()
	if err != nil {
		return 0, 0, err
	}
	crc, n, err := ChecksumReader(io.NewSectionReader(b.f, 0, fi.Size()), fi.Size())
	if err != nil {
		return 0, 0, err
	}
	return crc, n, nil
}

func (b *fileBLOB) close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return nil
	}
	err := b.f.Close()
	b.f = nil
	return err
}
