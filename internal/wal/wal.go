// Package wal implements a write-ahead mutation journal: fsynced,
// checksummed, length-prefixed records appended to rotating segment
// files (segment.go), plus the MANIFEST that says where recovery
// starts (manifest.go). The catalog journals every mutation between
// checkpoints, so an HTTP edit made seconds before a kill -9 survives
// the restart — the surviving segments are replayed over the last
// checkpoint, and each checkpoint rotates the active segment and
// deletes the ones it covers. Journal is one segment file; Segmented
// is the rotating journal over a directory of them.
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
// fsync with no added latency. WithBatchWindow bounds how long a
// leader waits for stragglers that are mid-Append but not yet queued;
// it never delays a solitary appender. Batches keep the per-record
// durability contract: a batch either wholly acks (every record is on
// stable storage) or wholly rolls back (the file is truncated to the
// last acknowledged boundary and every caller gets the error). A
// failed batch also fences the journal: every later batch fails too,
// until Unfence. So a record enqueued in the expectation that an
// earlier one lands never lands without it; the caller unfences once
// it has waited out everything it enqueued.
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
// Segmented.Rotate escapes it — appends resume in the next segment and
// replay truncates the sealed segment's torn tail.
var ErrFailed = errors.New("wal: journal failed")

// ErrFenced reports a batch refused because an earlier one failed and
// the journal has not been unfenced since (see Journal.Unfence).
var ErrFenced = errors.New("wal: journal fenced after a failed batch")

// Stats holds the journal's monotonic counters.
type Stats struct {
	Appends       atomic.Int64
	BytesAppended atomic.Int64
	Syncs         atomic.Int64
	AppendErrors  atomic.Int64
	Batches       atomic.Int64
}

// StatsSnapshot is a plain-value copy of Stats, JSON-friendly for
// /metrics. Appends counts records; Batches counts group commits
// (write+fsync cycles), so Appends/Batches is the mean batch size.
// Rotations and SegmentsCompacted stay zero for a single segment's
// Journal; a Segmented journal fills them in.
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
	// Append durably adds one record (write + fsync, possibly shared
	// with concurrent appenders via group commit).
	Append(data []byte) error
	// AppendBatch durably adds all records or none of them: the
	// records share one frame sequence, one write and one fsync, and
	// a failure rolls the whole batch back.
	AppendBatch(records [][]byte) error
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
	// Unfence lets batches commit again after a failed one fenced the
	// journal (see Journal.Unfence).
	Unfence()
	// Sync flushes without appending (used at shutdown).
	Sync() error
	// Close releases the file handle.
	Close() error
	// Stats returns a snapshot of the journal counters.
	Stats() StatsSnapshot
}

// FsyncObserver receives the wall time of each fsync the journal
// issues. telemetry.*Histogram satisfies it; the local interface keeps
// this package from importing telemetry. Callers that only hold an
// Appender type-assert for the SetFsyncObserver method.
type FsyncObserver interface {
	Observe(d time.Duration)
}

// pending is one enqueued append awaiting a group commit: one or more
// pre-built frames plus the channel its caller blocks on.
type pending struct {
	frames []byte
	n      int // record count
	done   chan error
}

// Ticket is the handle for an enqueued-but-unacknowledged append. Wait
// blocks until the record's group commit lands and returns its
// outcome; it is idempotent and safe to call from any goroutine, but
// every ticket must be waited on at least once — an abandoned ticket
// leaks the resources (straggler accounting, rotation read-lock) that
// Enqueue reserved.
type Ticket struct {
	once sync.Once
	wait func() error
	err  error
}

// Wait blocks until the enqueued records are durable (or the commit
// failed) and returns the outcome. Repeated calls return the same
// result.
func (t *Ticket) Wait() error {
	t.once.Do(func() { t.err = t.wait() })
	return t.err
}

// ErrTicket returns a ticket that is already resolved to err — the
// shape fault-injection wrappers need to fail an enqueue before it
// reaches the real log. err may be nil (an empty batch).
func ErrTicket(err error) *Ticket {
	return &Ticket{wait: func() error { return err }}
}

// segmentFile is what a Journal appends to: an *os.File, or in tests
// a wrapper that fails on demand.
type segmentFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Journal is an append-only record log. Safe for concurrent use.
type Journal struct {
	mu sync.Mutex
	f  segmentFile
	// size is the length of the last fully-acknowledged record
	// boundary; a failed append truncates back to it.
	size   int64
	failed error
	// fence, set by a failed batch (or Fence), refuses every later batch
	// until Unfence.
	fence    error
	stats    Stats
	fsyncObs FsyncObserver
	batchObs FsyncObserver

	// Group-commit state: queued appends (guarded by qmu — a separate,
	// tiny lock so Enqueue never blocks behind a leader's fsync, which
	// runs under mu), the leader token (a 1-buffered channel; its
	// holder is the batch leader), the straggler window, and a count of
	// appends currently in flight (enqueued or about to be) that the
	// leader compares against the queue length. A channel rather than
	// a mutex because followers must be able to learn their fate
	// without acquiring anything the next leader holds: they select on
	// their done channel OR the token, whichever comes first.
	qmu         sync.Mutex
	queue       []*pending
	leader      chan struct{}
	batchWindow time.Duration
	inFlight    atomic.Int32
}

// Option configures a Journal at Open.
type Option func(*Journal)

// WithBatchWindow bounds how long a group-commit leader waits for
// concurrent appenders that have entered Append but not yet queued
// their frames. Zero (the default) disables the wait; batching then
// still happens naturally while a leader's fsync is in progress. The
// window only ever applies when another append is in flight, so a
// single sequential writer never sleeps.
func WithBatchWindow(d time.Duration) Option {
	return func(j *Journal) { j.batchWindow = d }
}

// SetFsyncObserver installs obs to receive the latency of every fsync
// (from Append and Sync, successful or not).
func (j *Journal) SetFsyncObserver(obs FsyncObserver) {
	j.mu.Lock()
	j.fsyncObs = obs
	j.mu.Unlock()
}

// SetBatchObserver installs obs to receive the size of each committed
// group-commit batch. Sizes are encoded on the microsecond scale — a
// batch of n records is observed as n·1µs — so the telemetry
// package's power-of-two duration histogram doubles as a count
// histogram (the bucket labeled 2^k µs holds batches of ≤ 2^k
// records).
func (j *Journal) SetBatchObserver(obs FsyncObserver) {
	j.mu.Lock()
	j.batchObs = obs
	j.mu.Unlock()
}

// syncLocked fsyncs the file and reports the latency. Assumes j.mu is
// held.
func (j *Journal) syncLocked() error {
	start := time.Now()
	err := j.f.Sync()
	if j.fsyncObs != nil {
		j.fsyncObs.Observe(time.Since(start))
	}
	return err
}

// Open opens (creating if necessary) the journal at path for
// appending.
func Open(path string, opts ...Option) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	j := &Journal{f: f, size: fi.Size(), leader: make(chan struct{}, 1)}
	for _, o := range opts {
		o(j)
	}
	return j, nil
}

// Size returns the length of the last fully-acknowledged record
// boundary — the journal's durable size.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// appendFrame appends one framed record to buf.
func appendFrame(buf, data []byte) []byte {
	return durable.AppendFrame(buf, recordMagic[:], data)
}

// Append durably adds one record: it is on stable storage when
// Append returns nil.
func (j *Journal) Append(data []byte) error {
	return j.Enqueue(data).Wait()
}

// AppendBatch durably adds every record or none. An empty batch is a
// no-op.
func (j *Journal) AppendBatch(records [][]byte) error {
	return j.EnqueueBatch(records).Wait()
}

// Enqueue fixes the record's log position (in Enqueue-call order)
// before it returns; the returned ticket's Wait runs the group-commit
// protocol.
func (j *Journal) Enqueue(data []byte) *Ticket {
	return j.enqueue(appendFrame(nil, data), 1)
}

// EnqueueBatch is Enqueue for an atomic batch.
func (j *Journal) EnqueueBatch(records [][]byte) *Ticket {
	if len(records) == 0 {
		return ErrTicket(nil)
	}
	total := 0
	for _, r := range records {
		total += frameHeaderLen + len(r)
	}
	buf := make([]byte, 0, total)
	for _, r := range records {
		buf = appendFrame(buf, r)
	}
	return j.enqueue(buf, len(records))
}

// enqueue reserves the frames' position in the queue. The in-flight
// count is held until the ticket resolves so a leader's straggler
// window keeps covering enqueued-but-unwaited tickets.
func (j *Journal) enqueue(frames []byte, n int) *Ticket {
	p := &pending{frames: frames, n: n, done: make(chan error, 1)}
	j.inFlight.Add(1)
	j.qmu.Lock()
	j.queue = append(j.queue, p)
	j.qmu.Unlock()
	return &Ticket{wait: func() error {
		defer j.inFlight.Add(-1)
		return j.finish(p)
	}}
}

// finish runs the group-commit protocol for one enqueued append:
// either be acknowledged by a concurrent leader or acquire the leader
// token and flush the whole queue with one write+fsync. Followers
// never need the token to observe their ack — crucial, because the
// next leader holds it while waiting for stragglers, and the previous
// batch's followers must not count as stragglers.
func (j *Journal) finish(p *pending) error {
	select {
	case err := <-p.done:
		// A concurrent leader committed this record.
		return err
	case j.leader <- struct{}{}:
	}
	// Leader. The previous leader may have committed this record
	// between the enqueue and the token acquisition; anyone left in
	// the queue is itself selecting on the token, so releasing it and
	// returning cannot strand them.
	select {
	case err := <-p.done:
		<-j.leader
		return err
	default:
	}
	j.waitForStragglers()
	j.qmu.Lock()
	batch := j.queue
	j.queue = nil
	j.qmu.Unlock()
	j.mu.Lock()
	err := j.commitBatchLocked(batch)
	j.mu.Unlock()
	for _, q := range batch {
		q.done <- err
	}
	<-j.leader
	return <-p.done
}

// waitForStragglers holds the batch open (up to the configured
// window) while appenders that have entered Append/AppendBatch have
// not yet queued their frames. With no concurrent appenders it
// returns immediately.
func (j *Journal) waitForStragglers() {
	w := j.batchWindow
	if w <= 0 {
		return
	}
	step := w / 16
	if step <= 0 {
		step = time.Microsecond
	}
	deadline := time.Now().Add(w)
	for {
		j.qmu.Lock()
		queued := len(j.queue)
		j.qmu.Unlock()
		if int32(queued) >= j.inFlight.Load() || !time.Now().Before(deadline) {
			return
		}
		time.Sleep(step)
	}
}

// commitBatchLocked writes and fsyncs every queued frame as one unit.
// On failure the file is truncated back to the last acknowledged
// boundary, so the batch wholly acks or wholly rolls back. Assumes
// j.mu is held; the caller delivers the returned error to every
// batch member.
func (j *Journal) commitBatchLocked(batch []*pending) error {
	var records int64
	var buf []byte
	if len(batch) == 1 {
		records, buf = int64(batch[0].n), batch[0].frames
	} else {
		total := 0
		for _, p := range batch {
			records += int64(p.n)
			total += len(p.frames)
		}
		buf = make([]byte, 0, total)
		for _, p := range batch {
			buf = append(buf, p.frames...)
		}
	}
	var err error
	switch {
	case j.f == nil:
		err = ErrClosed
	case j.failed != nil:
		err = fmt.Errorf("%w: %v", ErrFailed, j.failed)
	case j.fence != nil:
		err = fmt.Errorf("%w: %w", ErrFenced, j.fence)
	default:
		if _, err = j.f.Write(buf); err != nil {
			err = fmt.Errorf("wal: %w", err)
		} else if err = j.syncLocked(); err != nil {
			err = fmt.Errorf("wal: sync: %w", err)
		}
		if err != nil {
			j.rollbackLocked()
			j.fence = err
		}
	}
	if err != nil {
		j.stats.AppendErrors.Add(records)
		return err
	}
	j.size += int64(len(buf))
	j.stats.Appends.Add(records)
	j.stats.BytesAppended.Add(int64(len(buf)))
	j.stats.Syncs.Add(1)
	j.stats.Batches.Add(1)
	if j.batchObs != nil {
		j.batchObs.Observe(time.Duration(records) * time.Microsecond)
	}
	return nil
}

// rollbackLocked truncates away the bytes of a failed append so the
// next record lands at a record boundary — a partial frame left
// mid-log would be taken for the torn tail on replay, discarding
// every acknowledged record after it. O_APPEND makes the next write
// resume at the truncated end. If the truncate itself fails the
// journal is marked failed and refuses further appends: better
// unavailable than silently lossy.
func (j *Journal) rollbackLocked() {
	if err := j.f.Truncate(j.size); err != nil {
		j.failed = fmt.Errorf("rollback truncate: %v", err)
	}
}

// Fence refuses every batch not yet committed, with err as the cause,
// until Unfence: what a failed batch does. Fault injection fences to
// fail a record at enqueue the way a failed write would.
func (j *Journal) Fence(err error) {
	j.mu.Lock()
	j.fence = err
	j.mu.Unlock()
}

// Unfence lets batches commit again after a failed one. The caller
// must first have waited out every batch enqueued before the call:
// all of them were refused.
func (j *Journal) Unfence() { j.Fence(nil) }

// Sync flushes without appending.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if err := j.syncLocked(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	j.stats.Syncs.Add(1)
	return nil
}

// Close releases the file handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Stats returns a snapshot of the segment's counters.
func (j *Journal) Stats() StatsSnapshot {
	return StatsSnapshot{
		Appends:       j.stats.Appends.Load(),
		BytesAppended: j.stats.BytesAppended.Load(),
		Syncs:         j.stats.Syncs.Load(),
		AppendErrors:  j.stats.AppendErrors.Load(),
		Batches:       j.stats.Batches.Load(),
	}
}

// ReplayResult reports what a Replay pass found.
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

// Replay reads the journal at path and calls fn for each intact
// record in order. A missing file is an empty journal. Replay stops
// at a torn tail (reported via ReplayResult, not an error); an error
// from fn aborts the replay and is returned.
func Replay(path string, fn func(data []byte) error) (ReplayResult, error) {
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

// ReplayFrames is Replay over any reader, so a replication feed can
// resume a segment from a byte offset (position the reader, then add
// ReplayResult.Consumed). Every frame failure — a torn header or
// payload, the wrong magic, a length over MaxRecordLen, a CRC
// mismatch — is a tear at that frame's offset.
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

// TruncateAt cuts the journal at path down to off — the tear offset
// Replay reported — and fsyncs it, so appends after a torn-tail
// recovery resume at a clean record boundary. The bytes past the tear
// are unreadable by definition; left in place, a journal reopened with
// O_APPEND would write acknowledged records after them, and the next
// replay would stop at the old tear and drop every one. A missing file
// is a no-op.
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
