// Package blob implements BLOBs (Definition 4 of Gibbs et al., SIGMOD
// 1994): attribute values that appear to applications as byte
// sequences, with an interface to read and append data.
//
// The paper notes that BLOB layout (contiguous vs fragmented) is a
// performance concern, not a data modeling one; this package provides
// an in-memory store and a file-backed store behind one interface, and
// instruments reads so the benchmark harness can measure bytes touched
// (scaled playback and layout ablations need exactly that number).
//
// Per the paper, insertion and deletion of byte spans are not provided:
// "for time-based media these operations are not essential since
// non-destructive editing techniques are often used."
package blob

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Errors.
var (
	ErrNotFound   = errors.New("blob: not found")
	ErrOutOfRange = errors.New("blob: span out of range")
	ErrClosed     = errors.New("blob: store closed")
)

// ID identifies a BLOB within a store.
type ID uint64

// String formats the ID.
func (id ID) String() string { return fmt.Sprintf("blob-%d", id) }

// BLOB is the byte-sequence view of Definition 4.
type BLOB interface {
	// ReadSpan reads n bytes starting at off. It returns ErrOutOfRange
	// if the span extends past the end.
	ReadSpan(off, n int64) ([]byte, error)
	// Append adds data at the end and returns the offset at which it
	// was placed. It must not retain data: callers reuse the buffer.
	Append(data []byte) (off int64, err error)
	// Size returns the current length in bytes.
	Size() int64
}

// Stats counts I/O against a BLOB or store, for the measurement-driven
// benches. Corruptions counts payloads that failed their integrity
// check on open and were quarantined (file stores only).
type Stats struct {
	Reads         atomic.Int64
	BytesRead     atomic.Int64
	Appends       atomic.Int64
	BytesAppended atomic.Int64
	Corruptions   atomic.Int64
}

// Snapshot returns a plain-value copy.
func (s *Stats) Snapshot() (reads, bytesRead, appends, bytesAppended int64) {
	return s.Reads.Load(), s.BytesRead.Load(), s.Appends.Load(), s.BytesAppended.Load()
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.Reads.Store(0)
	s.BytesRead.Store(0)
	s.Appends.Store(0)
	s.BytesAppended.Store(0)
}

// Store manages a set of BLOBs.
type Store interface {
	// Create allocates a fresh empty BLOB.
	Create() (ID, BLOB, error)
	// Open returns the BLOB with the given ID.
	Open(id ID) (BLOB, error)
	// Delete removes a BLOB.
	Delete(id ID) error
	// Reserve makes every later Create return an ID of at least next:
	// IDs below it were handed out where the store cannot see.
	Reserve(next ID)
	// IDs lists existing BLOBs in ascending order.
	IDs() ([]ID, error)
	// Stats exposes the store-wide I/O counters.
	Stats() *Stats
}

// MemStore is an in-memory Store. The zero value is not usable;
// construct with NewMemStore. Safe for concurrent use.
type MemStore struct {
	mu    sync.RWMutex
	next  ID
	blobs map[ID]*memBLOB
	stats Stats
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{next: 1, blobs: make(map[ID]*memBLOB)}
}

// Create implements Store.
func (s *MemStore) Create() (ID, BLOB, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	b := &memBLOB{stats: &s.stats}
	s.blobs[id] = b
	return id, b, nil
}

// Open implements Store.
func (s *MemStore) Open(id ID) (BLOB, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	return b, nil
}

// Delete implements Store.
func (s *MemStore) Delete(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[id]; !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	delete(s.blobs, id)
	return nil
}

// Reserve implements Store.
func (s *MemStore) Reserve(next ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next = max(s.next, next)
}

// IDs implements Store.
func (s *MemStore) IDs() ([]ID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ID, 0, len(s.blobs))
	for id := range s.blobs {
		out = append(out, id)
	}
	sortIDs(out)
	return out, nil
}

// Stats implements Store.
func (s *MemStore) Stats() *Stats { return &s.stats }

// memBLOB is a growable byte buffer with instrumentation.
type memBLOB struct {
	mu    sync.RWMutex
	data  []byte
	stats *Stats
}

// checkSpan reports whether [off, off+n) lies within a BLOB of size
// bytes. It compares n with size-off, so no off+n can wrap past the
// check.
func checkSpan(off, n, size int64) error {
	if off < 0 || n < 0 || off > size || n > size-off {
		return fmt.Errorf("%w: %d bytes at %d of %d", ErrOutOfRange, n, off, size)
	}
	return nil
}

// ReadSpan implements BLOB.
func (b *memBLOB) ReadSpan(off, n int64) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := checkSpan(off, n, int64(len(b.data))); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b.data[off:off+n])
	b.stats.Reads.Add(1)
	b.stats.BytesRead.Add(n)
	return out, nil
}

// Append implements BLOB.
func (b *memBLOB) Append(data []byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	off := int64(len(b.data))
	b.data = append(b.data, data...)
	b.stats.Appends.Add(1)
	b.stats.BytesAppended.Add(int64(len(data)))
	return off, nil
}

// Size implements BLOB.
func (b *memBLOB) Size() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return int64(len(b.data))
}

func sortIDs(ids []ID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
