package wal

// Segments: the record stream is split into rotating segment files —
// journal.000017.log — sealed at one byte bound (or explicitly, by a
// checkpointer). Sealed segments are immutable; once a durable
// checkpoint covers every record in a sealed segment, CompactThrough
// deletes it. Recovery therefore replays only the segments after the
// last checkpoint boundary.
//
// Rotation runs while it holds the group-commit leader token: an
// explicit Rotate, and the byte bound, which the leader checks after
// it commits a batch. No batch is in flight then, so a frame is never
// split across segments. A rotation syncs the outgoing segment, opens
// the next one, fsyncs the directory so the new file survives a
// crash, and closes the old one.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"timedmedia/internal/durable"
)

// Segment file naming: journal.NNNNNN.log, NNNNNN a zero-padded
// decimal index starting at 1. Indexes grow monotonically and are
// never reused, so lexicographic order is replay order.
const (
	segmentPrefix = "journal."
	segmentSuffix = ".log"
)

// DefaultSegmentBytes seals a segment once it holds this many bytes.
const DefaultSegmentBytes = 64 << 20

// SegmentFile returns the path of segment idx inside dir.
func SegmentFile(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d%s", segmentPrefix, idx, segmentSuffix))
}

// ParseSegmentIndex extracts the index from a segment file name (not
// path). ok is false for names that are not segment files.
func ParseSegmentIndex(name string) (uint64, bool) {
	if len(name) < len(segmentPrefix)+len(segmentSuffix) ||
		!strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	mid := name[len(segmentPrefix) : len(name)-len(segmentSuffix)]
	if len(mid) < 6 {
		return 0, false
	}
	idx, err := strconv.ParseUint(mid, 10, 64)
	if err != nil || idx == 0 {
		return 0, false
	}
	return idx, true
}

// ListSegments returns the segment indexes present in dir, ascending.
// A missing directory is an empty journal.
func ListSegments(dir string) ([]uint64, error) {
	names, err := durable.ListDir(dir)
	if err != nil {
		return nil, err
	}
	return SegmentIndexes(names), nil
}

// SegmentIndexes returns the segment indexes among a directory's
// names, ascending.
func SegmentIndexes(names []string) []uint64 {
	var idxs []uint64
	for _, name := range names {
		if idx, ok := ParseSegmentIndex(name); ok {
			idxs = append(idxs, idx)
		}
	}
	slices.Sort(idxs)
	return idxs
}

// SegmentedOption configures a Segmented journal at OpenSegmented.
type SegmentedOption func(*Segmented)

// WithSegmentBytes seals the active segment once it reaches n bytes.
// n <= 0 keeps the default.
func WithSegmentBytes(n int64) SegmentedOption {
	return func(s *Segmented) {
		if n > 0 {
			s.maxBytes = n
		}
	}
}

// WithSegments hands OpenSegmented the segment indexes dir holds,
// ascending, from a listing the caller took (SegmentIndexes), so it
// does not list dir again.
func WithSegments(idxs []uint64) SegmentedOption {
	return func(s *Segmented) { s.listed, s.listing = true, idxs }
}

// WithSegmentBatchWindow bounds how long a group-commit leader waits
// for concurrent appenders that have entered Append but not yet
// queued their frames. Zero (the default) disables the wait; batching
// then still happens naturally while a leader's fsync is in progress.
// The window only ever applies when another append is in flight, so a
// single sequential writer never sleeps.
func WithSegmentBatchWindow(d time.Duration) SegmentedOption {
	return func(s *Segmented) { s.batchWindow = d }
}

// Segmented is the append-only journal: a rotating, compactable log
// over a directory of segment files. Appends go to the active
// (highest-index) segment through group commit. Safe for concurrent
// use.
type Segmented struct {
	dir         string
	maxBytes    int64
	batchWindow time.Duration
	listed      bool     // WithSegments: listing holds dir's segments
	listing     []uint64 // so OpenSegmented does not list dir again

	// mu guards the active segment — its file (nil once closed), index,
	// durable size (the last fully-acknowledged record boundary; a
	// failed append truncates back to it) and failed state — plus the
	// fence, which a failed batch (or Fence) sets and which refuses
	// every later batch until Unfence, and the observers.
	mu       sync.Mutex
	f        segmentFile
	idx      uint64
	size     int64
	failed   error
	fence    error
	fsyncObs FsyncObserver
	batchObs FsyncObserver
	stats    stats

	// Group-commit state: queued appends (guarded by qmu — a separate,
	// tiny lock so Enqueue never blocks behind a leader's fsync, which
	// runs under mu), the leader token (a 1-buffered channel; its
	// holder is the batch leader, and rotation holds it too), and a
	// count of appends currently in flight (enqueued or about to be)
	// that the leader compares against the queue length. A channel
	// rather than a mutex because followers must be able to learn their
	// fate without acquiring anything the next leader holds: they select
	// on their done channel OR the token, whichever comes first.
	qmu      sync.Mutex
	queue    []*Ticket
	leader   chan struct{}
	inFlight atomic.Int32
}

// OpenSegmented opens (creating if necessary) the segmented journal in
// dir: the highest-index existing segment becomes the active one, or
// journal.000001.log is created. The caller is responsible for having
// replayed existing segments (and truncated any torn tail in the last
// one) first — the active segment is opened with O_APPEND.
func OpenSegmented(dir string, opts ...SegmentedOption) (*Segmented, error) {
	s := &Segmented{dir: dir, maxBytes: DefaultSegmentBytes, idx: 1, leader: make(chan struct{}, 1)}
	for _, o := range opts {
		o(s)
	}
	idxs, err := s.listing, error(nil)
	if !s.listed {
		if idxs, err = ListSegments(dir); err != nil {
			return nil, err
		}
	}
	if n := len(idxs); n > 0 {
		s.idx = idxs[n-1]
	}
	if s.f, s.size, err = openSegment(SegmentFile(dir, s.idx)); err != nil {
		return nil, err
	}
	return s, nil
}

// openSegment opens (creating if necessary) a segment file for
// appending and returns its size.
func openSegment(path string) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	return f, fi.Size(), nil
}

// DurableBoundary reports the active segment's index and its durable
// byte size — the last fully-acknowledged record boundary. A
// replication feed reads sealed segments whole and the active segment
// only up to this boundary, so it never ships bytes that a
// crash-then-rollback could retract.
func (s *Segmented) DurableBoundary() (idx uint64, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx, s.size
}

// Rotate seals the active segment and opens the next one, returning
// the sealed segment's index. It holds the leader token, so it first
// commits whatever is queued into the outgoing segment: after Rotate
// returns, every record enqueued before the call lives in a segment
// <= the returned index, and every record enqueued after lives in a
// later one — the boundary a checkpointer needs: records captured by a
// checkpoint at this boundary are exactly the compactable prefix.
// Rotating a failed segment escapes ErrFailed.
func (s *Segmented) Rotate() (uint64, error) {
	s.leader <- struct{}{}
	defer func() { <-s.leader }()
	s.commitQueued()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, ErrClosed
	}
	sealed := s.idx
	if err := s.rotateLocked(); err != nil {
		return 0, err
	}
	return sealed, nil
}

// rotateLocked syncs the active segment, opens segment idx+1, makes it
// durable, and only then closes the old one. Assumes s.mu and the
// leader token are held and the journal is open. On failure the active
// segment stays in place — appends continue into the old segment.
func (s *Segmented) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	path := SegmentFile(s.dir, s.idx+1)
	next, size, err := openSegment(path)
	if err != nil {
		return err
	}
	// Make the new segment file itself durable before any record lands
	// in it: a crash right after rotation must still find the file so
	// recovery's segment scan sees a contiguous sequence.
	if err := durable.SyncDir(s.dir); err != nil {
		next.Close()
		os.Remove(path)
		return err
	}
	s.f.Close()
	s.f, s.idx, s.size, s.failed = next, s.idx+1, size, nil
	s.stats.rotations.Add(1)
	return nil
}

// CompactThrough deletes every sealed segment with index <= through.
// The caller must hold a durable checkpoint covering every record in
// those segments. The active segment is never deleted, even if its
// index qualifies. Returns the number of segments removed.
func (s *Segmented) CompactThrough(through uint64) (int, error) {
	s.mu.Lock()
	activeIdx, closed := s.idx, s.f == nil
	s.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	idxs, err := ListSegments(s.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, idx := range idxs {
		if idx > through || idx >= activeIdx {
			break
		}
		if err := os.Remove(SegmentFile(s.dir, idx)); err != nil {
			return removed, fmt.Errorf("wal: compact segment %d: %w", idx, err)
		}
		removed++
	}
	if removed > 0 {
		if err := durable.SyncDir(s.dir); err != nil {
			return removed, err
		}
		s.stats.compacted.Add(int64(removed))
	}
	return removed, nil
}

// SegmentReplay reports one segment's replay outcome.
type SegmentReplay struct {
	Index uint64
	ReplayResult
}

// ReplaySegments replays every segment in dir in index order, calling
// fn for each intact record. A torn tail in the last segment is the
// normal crash signature; a tear in an earlier (sealed) segment
// indicates corruption, is reported the same way, and replay continues
// with the following segments — records lost to a mid-segment tear
// surface as replay errors downstream rather than being silently
// skipped. The per-segment results let the caller truncate the tail
// tear before reopening for appends.
func ReplaySegments(dir string, fn func(data []byte) error) ([]SegmentReplay, error) {
	idxs, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	return ReplayIndexes(dir, idxs, fn)
}

// ReplayIndexes is ReplaySegments over the segments idxs names, from a
// listing of dir the caller took (SegmentIndexes).
func ReplayIndexes(dir string, idxs []uint64, fn func(data []byte) error) ([]SegmentReplay, error) {
	var out []SegmentReplay
	for _, idx := range idxs {
		res, err := replayFile(SegmentFile(dir, idx), fn)
		out = append(out, SegmentReplay{Index: idx, ReplayResult: res})
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
