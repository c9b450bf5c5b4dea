// Package wal implements a write-ahead mutation journal: fsynced,
// checksummed, length-prefixed records appended to rotating segment
// files, plus the MANIFEST that says where recovery starts
// (manifest.go). The catalog journals every mutation between
// checkpoints, so an HTTP edit made seconds before a kill -9 survives
// the restart — the surviving segments are replayed over the last
// checkpoint, and each checkpoint rotates the active segment and
// deletes the ones it covers. Segmented is the one journal type: it
// appends to the active segment of a directory, seals it at one byte
// bound or on an explicit Rotate (segment.go), and deletes the sealed
// segments a checkpoint covers.
//
// Record frame: durable's length + CRC-32C frame behind a 4-byte
// prefix.
//
//	magic  uint32  0x57414C31 ("WAL1")
//	length uint32  payload length in bytes
//	crc    uint32  CRC-32C over the payload
//	payload [length]byte
//
// Replay stops cleanly at the first incomplete or corrupt record: a
// crash mid-append leaves a torn tail, which is expected and reported,
// not an error. Records before the tear are intact (each append is
// fsynced before the mutation is acknowledged). Recovery must truncate
// the tear away (TruncateAt) before reopening the journal for appends,
// or new records would land after the garbage and be lost to the next
// replay.
//
// # Group commit
//
// Append is a group commit: concurrent callers enqueue their frames
// and the first to take the leader token becomes the leader, writing
// every queued frame with a single write + fsync and acknowledging all
// of them at once. Throughput under concurrent writers therefore
// scales with the batch size rather than being capped at one fsync
// per record, while a lone writer still pays exactly one write + one
// fsync with no added latency. WithSegmentBatchWindow bounds how long
// a leader waits for stragglers that are mid-Append but not yet
// queued; it never delays a solitary appender. Batches keep the
// per-record durability contract: a batch either wholly acks (every
// record is on stable storage) or wholly rolls back (the file is
// truncated to the last acknowledged boundary and every caller gets
// the error). A failed batch also fences the journal: every later
// batch fails too, until Unfence. So a record enqueued in the
// expectation that an earlier one lands never lands without it; the
// caller unfences once it has waited out everything it enqueued.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"timedmedia/internal/durable"
)

var recordMagic = [4]byte{'W', 'A', 'L', '1'}

const frameHeaderLen = len(recordMagic) + durable.FrameHeaderLen

// MaxRecordLen bounds a single record so a corrupt length field cannot
// drive a multi-gigabyte allocation during replay.
const MaxRecordLen = 64 << 20

// ErrClosed reports an append to a closed journal.
var ErrClosed = errors.New("wal: journal closed")

// ErrFailed reports a segment that could not truncate away a failed
// append: later records would land after the partial frame and be
// discarded as the torn tail on replay, so the segment refuses writes.
// Rotate escapes it — appends resume in the next segment and replay
// truncates the sealed segment's torn tail.
var ErrFailed = errors.New("wal: journal failed")

// ErrFenced reports a batch refused because an earlier one failed and
// the journal has not been unfenced since (see Segmented.Unfence).
var ErrFenced = errors.New("wal: journal fenced after a failed batch")

// stats holds the journal's monotonic counters.
type stats struct {
	appends, bytesAppended, syncs, appendErrors, batches atomic.Int64
	rotations, compacted                                 atomic.Int64
}

// StatsSnapshot is a plain-value copy of the journal's counters,
// JSON-friendly for /metrics. Appends counts records; Batches counts
// group commits (write+fsync cycles), so Appends/Batches is the mean
// batch size.
type StatsSnapshot struct {
	Appends           int64 `json:"appends"`
	BytesAppended     int64 `json:"bytes_appended"`
	Syncs             int64 `json:"syncs"`
	AppendErrors      int64 `json:"append_errors"`
	Batches           int64 `json:"batches"`
	Rotations         int64 `json:"rotations,omitempty"`
	SegmentsCompacted int64 `json:"segments_compacted,omitempty"`
}

// Appender is the mutation-journal surface the catalog writes to.
// *Segmented implements it; the fault-injection wrapper does too.
type Appender interface {
	// Enqueue reserves the record's position in the log without
	// waiting for durability: the record's log offset is fixed by the
	// order of Enqueue calls, and the returned Ticket's Wait blocks
	// until the group commit lands (or fails). Append is exactly
	// Enqueue followed by Wait. The split lets a caller assign its
	// own sequence numbers and enqueue under the same lock, so log
	// order provably equals sequence order. Every Ticket MUST be
	// waited on.
	Enqueue(data []byte) *Ticket
	// EnqueueBatch is Enqueue for an atomic batch: all records take
	// consecutive log positions and share one commit outcome.
	EnqueueBatch(records [][]byte) *Ticket
	// Rotate seals the active segment and opens the next one, returning
	// the sealed segment's index (see Segmented.Rotate).
	Rotate() (uint64, error)
	// CompactThrough deletes every sealed segment with index <= through
	// and returns how many it removed.
	CompactThrough(through uint64) (int, error)
	// DurableBoundary reports the active segment's index and durable
	// byte size (see Segmented.DurableBoundary).
	DurableBoundary() (idx uint64, size int64)
	// Unfence lets batches commit again after a failed one fenced the
	// journal (see Segmented.Unfence).
	Unfence()
	// Sync flushes without appending (used at shutdown).
	Sync() error
	// Close releases the file handle.
	Close() error
	// Stats returns a snapshot of the journal counters.
	Stats() StatsSnapshot
	// SetFsyncObserver and SetBatchObserver install the fsync-latency
	// and batch-size observers (see Segmented.SetBatchObserver).
	SetFsyncObserver(obs FsyncObserver)
	SetBatchObserver(obs FsyncObserver)
}

// FsyncObserver receives the wall time of each fsync the journal
// issues. telemetry.*Histogram satisfies it; the local interface keeps
// this package from importing telemetry.
type FsyncObserver interface {
	Observe(d time.Duration)
}

// Ticket is one enqueued-but-unacknowledged append: its pre-built
// frames and the channel its group commit's outcome arrives on. Wait
// blocks until that commit lands and returns its outcome; it is
// idempotent and safe to call from any goroutine, but every ticket
// must be waited on at least once — an abandoned ticket holds the
// straggler count that Enqueue reserved, so every later leader waits
// out its whole window.
type Ticket struct {
	s      *Segmented // nil: resolved at creation with err
	frames []byte
	n      int // record count
	done   chan error
	once   sync.Once
	err    error
}

// Wait blocks until the enqueued records are durable (or the commit
// failed) and returns the outcome. Repeated calls return the same
// result.
func (t *Ticket) Wait() error {
	t.once.Do(func() {
		if t.s != nil {
			t.err = t.s.finish(t)
			t.s.inFlight.Add(-1)
		}
	})
	return t.err
}

// segmentFile is what a Segmented appends to: an *os.File, or in tests
// a wrapper that fails on demand.
type segmentFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// appendFrame appends one framed record to buf.
func appendFrame(buf, data []byte) []byte {
	return durable.AppendFrame(buf, recordMagic[:], data)
}

// Append durably adds one record: it is on stable storage when
// Append returns nil.
func (s *Segmented) Append(data []byte) error {
	return s.Enqueue(data).Wait()
}

// AppendBatch durably adds every record or none. An empty batch is a
// no-op.
func (s *Segmented) AppendBatch(records [][]byte) error {
	return s.EnqueueBatch(records).Wait()
}

// Enqueue implements Appender: the record's log position (in
// Enqueue-call order) is fixed before it returns; the returned
// ticket's Wait runs the group-commit protocol.
func (s *Segmented) Enqueue(data []byte) *Ticket {
	return s.enqueue(appendFrame(nil, data), 1)
}

// EnqueueBatch implements Appender.
func (s *Segmented) EnqueueBatch(records [][]byte) *Ticket {
	if len(records) == 0 {
		return &Ticket{}
	}
	total := 0
	for _, r := range records {
		total += frameHeaderLen + len(r)
	}
	buf := make([]byte, 0, total)
	for _, r := range records {
		buf = appendFrame(buf, r)
	}
	return s.enqueue(buf, len(records))
}

// enqueue reserves the frames' position in the queue. The in-flight
// count is held until the ticket resolves so a leader's straggler
// window keeps covering enqueued-but-unwaited tickets.
func (s *Segmented) enqueue(frames []byte, n int) *Ticket {
	t := &Ticket{s: s, frames: frames, n: n, done: make(chan error, 1)}
	s.inFlight.Add(1)
	s.qmu.Lock()
	s.queue = append(s.queue, t)
	s.qmu.Unlock()
	return t
}

// finish runs the group-commit protocol for one enqueued append:
// either be acknowledged by a concurrent leader (or a Rotate) or
// acquire the leader token and flush the whole queue with one
// write+fsync, then seal the segment if it reached the byte bound.
// Followers never need the token to observe their ack — crucial,
// because the next leader holds it while waiting for stragglers, and
// the previous batch's followers must not count as stragglers.
func (s *Segmented) finish(t *Ticket) error {
	select {
	case err := <-t.done:
		// A concurrent leader committed this record.
		return err
	case s.leader <- struct{}{}:
	}
	// Leader. The previous leader may have committed this record
	// between the enqueue and the token acquisition; anyone left in
	// the queue is itself selecting on the token, so releasing it and
	// returning cannot strand them.
	select {
	case err := <-t.done:
		<-s.leader
		return err
	default:
	}
	s.waitForStragglers()
	s.commitQueued()
	s.mu.Lock()
	if s.f != nil && s.size >= s.maxBytes {
		// Advisory: a failed rotation leaves appends in this segment,
		// and the next leader tries again.
		s.rotateLocked()
	}
	s.mu.Unlock()
	<-s.leader
	return <-t.done
}

// waitForStragglers holds the batch open (up to the configured
// window) while appenders that have entered Append/AppendBatch have
// not yet queued their frames. With no concurrent appenders it
// returns immediately.
func (s *Segmented) waitForStragglers() {
	w := s.batchWindow
	if w <= 0 {
		return
	}
	step := w / 16
	if step <= 0 {
		step = time.Microsecond
	}
	deadline := time.Now().Add(w)
	for {
		s.qmu.Lock()
		queued := len(s.queue)
		s.qmu.Unlock()
		if int32(queued) >= s.inFlight.Load() || !time.Now().Before(deadline) {
			return
		}
		time.Sleep(step)
	}
}

// commitQueued commits everything queued as one batch and delivers
// the outcome to every member. The caller holds the leader token.
func (s *Segmented) commitQueued() {
	s.qmu.Lock()
	batch := s.queue
	s.queue = nil
	s.qmu.Unlock()
	if len(batch) == 0 {
		return
	}
	s.mu.Lock()
	err := s.commitBatchLocked(batch)
	s.mu.Unlock()
	for _, t := range batch {
		t.done <- err
	}
}

// commitBatchLocked writes and fsyncs every queued frame as one unit.
// On failure the file is truncated back to the last acknowledged
// boundary, so the batch wholly acks or wholly rolls back. Assumes
// s.mu is held; the caller delivers the returned error to every
// batch member.
func (s *Segmented) commitBatchLocked(batch []*Ticket) error {
	var records int64
	var buf []byte
	if len(batch) == 1 {
		records, buf = int64(batch[0].n), batch[0].frames
	} else {
		total := 0
		for _, t := range batch {
			records += int64(t.n)
			total += len(t.frames)
		}
		buf = make([]byte, 0, total)
		for _, t := range batch {
			buf = append(buf, t.frames...)
		}
	}
	var err error
	switch {
	case s.f == nil:
		err = ErrClosed
	case s.failed != nil:
		err = fmt.Errorf("%w: %v", ErrFailed, s.failed)
	case s.fence != nil:
		err = fmt.Errorf("%w: %w", ErrFenced, s.fence)
	default:
		if _, err = s.f.Write(buf); err != nil {
			err = fmt.Errorf("wal: %w", err)
		} else {
			err = s.syncLocked()
		}
		if err != nil {
			s.rollbackLocked()
			s.fence = err
		}
	}
	if err != nil {
		s.stats.appendErrors.Add(records)
		return err
	}
	s.size += int64(len(buf))
	s.stats.appends.Add(records)
	s.stats.bytesAppended.Add(int64(len(buf)))
	s.stats.batches.Add(1)
	if s.batchObs != nil {
		s.batchObs.Observe(time.Duration(records) * time.Microsecond)
	}
	return nil
}

// syncLocked fsyncs the active segment, reports the latency, and
// counts the sync. Assumes s.mu is held and the journal is open.
func (s *Segmented) syncLocked() error {
	start := time.Now()
	err := s.f.Sync()
	if s.fsyncObs != nil {
		s.fsyncObs.Observe(time.Since(start))
	}
	if err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	s.stats.syncs.Add(1)
	return nil
}

// rollbackLocked truncates away the bytes of a failed append so the
// next record lands at a record boundary — a partial frame left
// mid-log would be taken for the torn tail on replay, discarding
// every acknowledged record after it. O_APPEND makes the next write
// resume at the truncated end. If the truncate itself fails the
// segment is marked failed and refuses further appends until a
// rotation: better unavailable than silently lossy.
func (s *Segmented) rollbackLocked() {
	if err := s.f.Truncate(s.size); err != nil {
		s.failed = fmt.Errorf("rollback truncate: %v", err)
	}
}

// Fence refuses every batch not yet committed, with err as the cause,
// until Unfence: what a failed batch does. A fence outlives rotation.
// Fault injection fences to fail a record at enqueue the way a failed
// write would.
func (s *Segmented) Fence(err error) {
	s.mu.Lock()
	s.fence = err
	s.mu.Unlock()
}

// Unfence lets batches commit again after a failed one. The caller
// must first have waited out every batch enqueued before the call:
// all of them were refused.
func (s *Segmented) Unfence() { s.Fence(nil) }

// Sync flushes without appending.
func (s *Segmented) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	return s.syncLocked()
}

// Close releases the active segment's file handle.
func (s *Segmented) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Stats returns a snapshot of the counters, accumulated across every
// segment this journal wrote.
func (s *Segmented) Stats() StatsSnapshot {
	return StatsSnapshot{
		Appends:           s.stats.appends.Load(),
		BytesAppended:     s.stats.bytesAppended.Load(),
		Syncs:             s.stats.syncs.Load(),
		AppendErrors:      s.stats.appendErrors.Load(),
		Batches:           s.stats.batches.Load(),
		Rotations:         s.stats.rotations.Load(),
		SegmentsCompacted: s.stats.compacted.Load(),
	}
}

// SetFsyncObserver installs obs to receive the latency of every fsync
// (from commits, Sync and rotation, successful or not).
func (s *Segmented) SetFsyncObserver(obs FsyncObserver) {
	s.mu.Lock()
	s.fsyncObs = obs
	s.mu.Unlock()
}

// SetBatchObserver installs obs to receive the size of each committed
// group-commit batch. Sizes are encoded on the microsecond scale — a
// batch of n records is observed as n·1µs — so the telemetry
// package's power-of-two duration histogram doubles as a count
// histogram (the bucket labeled 2^k µs holds batches of ≤ 2^k
// records).
func (s *Segmented) SetBatchObserver(obs FsyncObserver) {
	s.mu.Lock()
	s.batchObs = obs
	s.mu.Unlock()
}

// ReplayResult reports what a replay of one segment found.
type ReplayResult struct {
	// Records is the number of intact records handed to fn.
	Records int
	// Torn is true when the log ends in an incomplete or corrupt
	// record — the signature of a crash mid-append. Everything before
	// the tear was replayed.
	Torn bool
	// TornOffset is the byte offset of the tear when Torn.
	TornOffset int64
	// Consumed is the byte length of the intact records handed to fn —
	// the offset a resuming reader should continue from. It excludes
	// the torn tail and any record fn rejected.
	Consumed int64
}

// replayFile replays the segment file at path. A missing file is an
// empty segment.
func replayFile(path string, fn func(data []byte) error) (ReplayResult, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return ReplayResult{}, nil
		}
		return ReplayResult{}, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	return ReplayFrames(f, fn)
}

// ReplayFrames reads frames from r and calls fn for each intact
// record in order, so a replication feed can resume a segment from a
// byte offset (position the reader, then add ReplayResult.Consumed).
// It stops at a torn tail (reported via ReplayResult, not an error);
// an error from fn aborts the replay and is returned. Every frame
// failure — a torn header or payload, the wrong magic, a length over
// MaxRecordLen, a CRC mismatch — is a tear at that frame's offset.
func ReplayFrames(r io.Reader, fn func(data []byte) error) (ReplayResult, error) {
	var res ReplayResult
	hdr := make([]byte, frameHeaderLen)
	for {
		err := durable.ReadFrameHeader(r, hdr)
		if err == io.EOF {
			return res, nil // clean end
		}
		ok := err == nil && [4]byte(hdr) == recordMagic
		var data []byte
		if ok {
			data, err = durable.ReadFramePayload(r, hdr, MaxRecordLen, nil)
			ok = err == nil
		}
		if !ok {
			res.Torn, res.TornOffset = true, res.Consumed
			return res, nil
		}
		if err := fn(data); err != nil {
			return res, err
		}
		res.Records++
		res.Consumed += int64(frameHeaderLen + len(data))
	}
}

// TruncateAt cuts the segment file at path down to off — the tear
// offset replay reported — and fsyncs it, so appends after a
// torn-tail recovery resume at a clean record boundary. The bytes past
// the tear are unreadable by definition; left in place, a segment
// reopened with O_APPEND would take acknowledged records after them,
// and the next replay would stop at the old tear and drop every one.
// A missing file is a no-op.
func TruncateAt(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(off); err != nil {
		return fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}
