package wal

// Segmented journal: the record stream is split into rotating segment
// files — journal.000017.log — sealed at a size or record-count
// threshold (or explicitly, by a checkpointer). Sealed segments are
// immutable; once a durable checkpoint covers every record in a
// sealed segment, CompactThrough deletes it. Recovery therefore
// replays only the segments after the last checkpoint boundary.
//
// Rotation protocol: the caller (the catalog's checkpointer) calls
// Rotate while it can guarantee no append is in flight; Rotate seals
// the active segment, fsyncs the directory so the new segment file
// survives a crash, and returns the sealed segment's index. Appends
// that race a size-triggered rotation are serialized by an RWMutex:
// appends hold the read side, rotation the write side, so a frame is
// never split across segments.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
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

// DefaultSegmentRecords seals a segment once it holds this many
// records, whichever limit trips first.
const DefaultSegmentRecords = 1 << 20

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
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var idxs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if idx, ok := ParseSegmentIndex(e.Name()); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	return idxs, nil
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

// WithSegmentRecords seals the active segment once it holds n records.
// n <= 0 keeps the default.
func WithSegmentRecords(n int64) SegmentedOption {
	return func(s *Segmented) {
		if n > 0 {
			s.maxRecords = n
		}
	}
}

// WithSegmentBatchWindow forwards the group-commit straggler window to
// each segment's underlying Journal.
func WithSegmentBatchWindow(d time.Duration) SegmentedOption {
	return func(s *Segmented) { s.batchWindow = d }
}

// Segmented is a rotating, compactable journal over a directory of
// segment files. It implements Appender; appends go to the active
// (highest-index) segment with the same group-commit and durability
// contract as Journal. Safe for concurrent use.
type Segmented struct {
	dir         string
	maxBytes    int64
	maxRecords  int64
	batchWindow time.Duration

	// rot guards the active-segment swap: appends and most other
	// operations hold the read side, rotation and compaction the write
	// side. The inner Journal provides its own serialization for the
	// actual writes.
	rot     sync.RWMutex
	active  *Journal
	idx     uint64 // active segment index
	records int64  // records in the active segment
	closed  bool

	// Accumulated counters from sealed segments, folded into Stats()
	// together with the active journal's.
	sealed    StatsSnapshot
	rotations atomic.Int64
	compacted atomic.Int64

	fsyncObs FsyncObserver
	batchObs FsyncObserver
}

// OpenSegmented opens (creating if necessary) the segmented journal in
// dir: the highest-index existing segment becomes the active one, or
// journal.000001.log is created. The caller is responsible for having
// replayed existing segments (and truncated any torn tail in the last
// one) first — the active segment is opened with O_APPEND, exactly
// like Open.
func OpenSegmented(dir string, opts ...SegmentedOption) (*Segmented, error) {
	s := &Segmented{
		dir:        dir,
		maxBytes:   DefaultSegmentBytes,
		maxRecords: DefaultSegmentRecords,
	}
	for _, o := range opts {
		o(s)
	}
	idxs, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	s.idx = 1
	if n := len(idxs); n > 0 {
		s.idx = idxs[n-1]
	}
	j, err := Open(SegmentFile(dir, s.idx), WithBatchWindow(s.batchWindow))
	if err != nil {
		return nil, err
	}
	s.active = j
	// Record count of a reopened segment is unknown without a replay;
	// the byte threshold still bounds it, and the first rotation resets
	// the count. Undercounting only delays a rotation, never corrupts.
	return s, nil
}

// ActiveIndex returns the index of the segment currently accepting
// appends.
func (s *Segmented) ActiveIndex() uint64 {
	s.rot.RLock()
	defer s.rot.RUnlock()
	return s.idx
}

// ActivePath returns the path of the active segment file.
func (s *Segmented) ActivePath() string {
	s.rot.RLock()
	defer s.rot.RUnlock()
	return SegmentFile(s.dir, s.idx)
}

// Append implements Appender.
func (s *Segmented) Append(data []byte) error {
	return s.Enqueue(data).Wait()
}

// AppendBatch implements Appender.
func (s *Segmented) AppendBatch(records [][]byte) error {
	return s.EnqueueBatch(records).Wait()
}

// Enqueue implements Appender. The rotation read-lock is held from
// Enqueue until the ticket resolves, so the active segment cannot be
// sealed (synced, closed) out from under a queued-but-uncommitted
// frame — the same critical section Append always had, split at the
// enqueue/wait boundary. The ticket must be waited on or the journal
// can never rotate again.
func (s *Segmented) Enqueue(data []byte) *Ticket {
	return s.enqueue(func(j *Journal) *Ticket { return j.Enqueue(data) }, 1)
}

// EnqueueBatch implements Appender.
func (s *Segmented) EnqueueBatch(records [][]byte) *Ticket {
	if len(records) == 0 {
		return ErrTicket(nil)
	}
	return s.enqueue(func(j *Journal) *Ticket { return j.EnqueueBatch(records) }, int64(len(records)))
}

func (s *Segmented) enqueue(enq func(*Journal) *Ticket, n int64) *Ticket {
	s.rot.RLock()
	if s.closed {
		s.rot.RUnlock()
		return ErrTicket(ErrClosed)
	}
	j := s.active
	inner := enq(j)
	return &Ticket{wait: func() error {
		err := inner.Wait()
		if err == nil {
			atomic.AddInt64(&s.records, n)
		}
		full := err == nil && (j.Size() >= s.maxBytes || atomic.LoadInt64(&s.records) >= s.maxRecords)
		s.rot.RUnlock()
		if full {
			// Opportunistic size-triggered rotation. Losing the race to a
			// concurrent appender or an explicit Rotate is fine — rotateFrom
			// re-checks the active index under the write lock.
			s.rotateFrom(j)
		}
		return err
	}}
}

// DurableBoundary reports the active segment's index and its durable
// byte size — the last fully-acknowledged record boundary. A
// replication feed reads sealed segments whole and the active segment
// only up to this boundary, so it never ships bytes that a
// crash-then-rollback could retract.
func (s *Segmented) DurableBoundary() (idx uint64, size int64) {
	s.rot.RLock()
	defer s.rot.RUnlock()
	return s.idx, s.active.Size()
}

// rotateFrom seals the active segment if it is still `from` — a
// no-op when someone else rotated first.
func (s *Segmented) rotateFrom(from *Journal) {
	s.rot.Lock()
	defer s.rot.Unlock()
	if s.closed || s.active != from {
		return
	}
	s.rotateLocked()
}

// Rotate seals the active segment and opens the next one, returning
// the sealed segment's index. After Rotate returns, every record
// appended before the call lives in a segment <= the returned index,
// and every record appended after lives in a later one — the boundary
// a checkpointer needs: records captured by a checkpoint at this
// boundary are exactly the compactable prefix.
func (s *Segmented) Rotate() (uint64, error) {
	s.rot.Lock()
	defer s.rot.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	sealedIdx := s.idx
	if err := s.rotateLocked(); err != nil {
		return 0, err
	}
	return sealedIdx, nil
}

// rotateLocked seals s.active and opens segment idx+1. Assumes the
// write side of s.rot is held. On failure the active segment stays in
// place — rotation is advisory, appends continue into the old segment.
func (s *Segmented) rotateLocked() error {
	old := s.active
	next, err := Open(SegmentFile(s.dir, s.idx+1), WithBatchWindow(s.batchWindow))
	if err != nil {
		return err
	}
	next.SetFsyncObserver(s.fsyncObs)
	next.SetBatchObserver(s.batchObs)
	// Make the new segment file itself durable before any record lands
	// in it: a crash right after rotation must still find the file so
	// recovery's segment scan sees a contiguous sequence.
	if err := durable.SyncDir(s.dir); err != nil {
		next.Close()
		os.Remove(SegmentFile(s.dir, s.idx+1))
		return err
	}
	// Seal: sync and close the outgoing segment, fold its counters.
	if err := old.Sync(); err != nil {
		next.Close()
		os.Remove(SegmentFile(s.dir, s.idx+1))
		return err
	}
	// A fence outlives the segment: a batch refused for following a
	// failed one must stay refused in the next segment too.
	next.fence = old.fence
	st := old.Stats()
	s.sealed.Appends += st.Appends
	s.sealed.BytesAppended += st.BytesAppended
	s.sealed.Syncs += st.Syncs
	s.sealed.AppendErrors += st.AppendErrors
	s.sealed.Batches += st.Batches
	old.Close()
	s.active = next
	s.idx++
	atomic.StoreInt64(&s.records, 0)
	s.rotations.Add(1)
	return nil
}

// CompactThrough deletes every sealed segment with index <= through.
// The caller must hold a durable checkpoint covering every record in
// those segments. The active segment is never deleted, even if its
// index qualifies. Returns the number of segments removed.
func (s *Segmented) CompactThrough(through uint64) (int, error) {
	s.rot.RLock()
	activeIdx := s.idx
	closed := s.closed
	s.rot.RUnlock()
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
		s.compacted.Add(int64(removed))
	}
	return removed, nil
}

// Fence fences the active segment (see Journal.Fence); Rotate carries
// the fence into the next one.
func (s *Segmented) Fence(err error) {
	s.rot.RLock()
	defer s.rot.RUnlock()
	s.active.Fence(err)
}

// Unfence implements Appender.
func (s *Segmented) Unfence() { s.Fence(nil) }

// Sync implements Appender.
func (s *Segmented) Sync() error {
	s.rot.RLock()
	defer s.rot.RUnlock()
	if s.closed {
		return nil
	}
	return s.active.Sync()
}

// Close implements Appender.
func (s *Segmented) Close() error {
	s.rot.Lock()
	defer s.rot.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.active.Close()
}

// Stats implements Appender: counters accumulated across every
// segment this process wrote, plus rotation/compaction counts.
func (s *Segmented) Stats() StatsSnapshot {
	s.rot.RLock()
	st := s.active.Stats()
	sealed := s.sealed
	s.rot.RUnlock()
	st.Appends += sealed.Appends
	st.BytesAppended += sealed.BytesAppended
	st.Syncs += sealed.Syncs
	st.AppendErrors += sealed.AppendErrors
	st.Batches += sealed.Batches
	st.Rotations = s.rotations.Load()
	st.SegmentsCompacted = s.compacted.Load()
	return st
}

// SetFsyncObserver forwards the fsync observer to the active segment
// and to every segment opened by future rotations.
func (s *Segmented) SetFsyncObserver(obs FsyncObserver) {
	s.rot.Lock()
	defer s.rot.Unlock()
	s.fsyncObs = obs
	if s.active != nil {
		s.active.SetFsyncObserver(obs)
	}
}

// SetBatchObserver forwards the batch observer likewise.
func (s *Segmented) SetBatchObserver(obs FsyncObserver) {
	s.rot.Lock()
	defer s.rot.Unlock()
	s.batchObs = obs
	if s.active != nil {
		s.active.SetBatchObserver(obs)
	}
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
	var out []SegmentReplay
	for _, idx := range idxs {
		res, err := Replay(SegmentFile(dir, idx), fn)
		out = append(out, SegmentReplay{Index: idx, ReplayResult: res})
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
