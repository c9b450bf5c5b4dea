// Package faultfs injects deterministic failures into the storage
// stack so crash-recovery paths can be exercised in ordinary tests:
// error on the Nth append, short (torn) writes, open/create failures,
// journal append/rotate/compact failures, and transient errors that
// the catalog's retry-with-backoff must absorb.
//
// An Injector holds a schedule of Rules; wrappers consult it before
// delegating. Ops are counted per name ("create", "open", "append",
// "readspan", "delete", "ids", "sync", "journal.append",
// "journal.rotate", "journal.compact"), so a test can say "fail the
// 3rd append, transiently" and get exactly that, every run.
package faultfs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/durable"
	"timedmedia/internal/wal"
)

// ErrInjected is the default injected failure.
var ErrInjected = errors.New("faultfs: injected fault")

// Transient returns an injected error the catalog classifies as
// retryable (wraps durable.ErrTransient).
func Transient() error {
	return fmt.Errorf("%w: %w", ErrInjected, durable.ErrTransient)
}

// Rule schedules one fault.
type Rule struct {
	// Op names the operation to intercept: "create", "open",
	// "append", "readspan", "delete", "ids", "sync",
	// "journal.append", "journal.rotate", "journal.compact",
	// "net.request", "net.read".
	Op string
	// Nth fires on the Nth matching call, 1-based.
	Nth int
	// Times repeats the fault for this many consecutive calls
	// starting at Nth (0 means once; -1 means forever).
	Times int
	// Err is the error to return; nil means ErrInjected.
	Err error
	// Short, for "append" and "net.read", delivers the first half of
	// the data before failing — a torn write (or a feed cut
	// mid-frame).
	Short bool
	// Delay sleeps this long before the call proceeds. A rule with a
	// Delay and neither Err nor Short is delay-only — the call
	// succeeds slowly (a slow peer); set Err explicitly (e.g.
	// ErrInjected) to combine delay with failure.
	Delay time.Duration
}

func (r Rule) err() error {
	if r.Err != nil {
		return r.Err
	}
	return ErrInjected
}

// Injector is a deterministic fault schedule. Safe for concurrent
// use. The zero value injects nothing.
type Injector struct {
	mu     sync.Mutex
	counts map[string]int
	rules  []Rule
	fired  int
}

// NewInjector builds an injector with the given rules.
func NewInjector(rules ...Rule) *Injector {
	return &Injector{counts: map[string]int{}, rules: rules}
}

// Add appends a rule.
func (in *Injector) Add(r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, r)
}

// Fired returns how many faults have been injected so far.
func (in *Injector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// Count returns how many calls to op have been seen (faulted or not).
func (in *Injector) Count(op string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[op]
}

// check counts one call to op and returns the scheduled fault, if
// any. The bool reports whether a short write was requested. A rule's
// Delay is slept here, outside the injector lock, so a slow-peer rule
// stalls only the faulted call.
func (in *Injector) check(op string) (error, bool) {
	err, short, delay := in.checkLocked(op)
	if delay > 0 {
		time.Sleep(delay)
	}
	return err, short
}

func (in *Injector) checkLocked(op string) (error, bool, time.Duration) {
	if in == nil {
		return nil, false, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.counts == nil {
		in.counts = map[string]int{}
	}
	in.counts[op]++
	n := in.counts[op]
	for _, r := range in.rules {
		if r.Op != op {
			continue
		}
		last := r.Nth + r.Times
		if n == r.Nth || (n > r.Nth && (r.Times < 0 || n <= last)) {
			in.fired++
			if r.Delay > 0 && r.Err == nil && !r.Short {
				return nil, false, r.Delay // delay-only: slow, not broken
			}
			return r.err(), r.Short, r.Delay
		}
	}
	return nil, false, 0
}

// Store wraps a blob.Store with fault injection.
type Store struct {
	inner blob.Store
	inj   *Injector
}

// Wrap builds a fault-injecting store over inner.
func Wrap(inner blob.Store, inj *Injector) *Store {
	return &Store{inner: inner, inj: inj}
}

// Create implements blob.Store.
func (s *Store) Create() (blob.ID, blob.BLOB, error) {
	if err, _ := s.inj.check("create"); err != nil {
		return 0, nil, err
	}
	id, b, err := s.inner.Create()
	if err != nil {
		return id, b, err
	}
	return id, &faultBLOB{inner: b, inj: s.inj}, nil
}

// Open implements blob.Store.
func (s *Store) Open(id blob.ID) (blob.BLOB, error) {
	if err, _ := s.inj.check("open"); err != nil {
		return nil, err
	}
	b, err := s.inner.Open(id)
	if err != nil {
		return nil, err
	}
	return &faultBLOB{inner: b, inj: s.inj}, nil
}

// Delete implements blob.Store.
func (s *Store) Delete(id blob.ID) error {
	if err, _ := s.inj.check("delete"); err != nil {
		return err
	}
	return s.inner.Delete(id)
}

// Reserve implements blob.Store.
func (s *Store) Reserve(next blob.ID) { s.inner.Reserve(next) }

// IDs implements blob.Store.
func (s *Store) IDs() ([]blob.ID, error) {
	if err, _ := s.inj.check("ids"); err != nil {
		return nil, err
	}
	return s.inner.IDs()
}

// Stats implements blob.Store.
func (s *Store) Stats() *blob.Stats { return s.inner.Stats() }

// Sync forwards blob fsync when the inner store supports it, with an
// injection point.
func (s *Store) Sync(id blob.ID) error {
	if err, _ := s.inj.check("sync"); err != nil {
		return err
	}
	if sy, ok := s.inner.(interface{ Sync(blob.ID) error }); ok {
		return sy.Sync(id)
	}
	return nil
}

type faultBLOB struct {
	inner blob.BLOB
	inj   *Injector
}

// ReadSpan implements blob.BLOB.
func (b *faultBLOB) ReadSpan(off, n int64) ([]byte, error) {
	if err, _ := b.inj.check("readspan"); err != nil {
		return nil, err
	}
	return b.inner.ReadSpan(off, n)
}

// Append implements blob.BLOB. A Short rule writes half the data
// before failing, leaving the torn state a crashed write would.
func (b *faultBLOB) Append(data []byte) (int64, error) {
	if err, short := b.inj.check("append"); err != nil {
		if short && len(data) > 1 {
			b.inner.Append(data[:len(data)/2])
		}
		return 0, err
	}
	return b.inner.Append(data)
}

// Size implements blob.BLOB.
func (b *faultBLOB) Size() int64 { return b.inner.Size() }

// Journal is the segmented WAL with injection points on its appends
// ("journal.append"), rotation ("journal.rotate") and compaction
// ("journal.compact"), so tests can fail the journal append that
// follows a successful in-memory mutation and assert the catalog rolls
// the mutation back, or fail a checkpoint's WAL cleanup independently
// of its appends. Everything else is the embedded journal's.
type Journal struct {
	*wal.Segmented
	inj *Injector
}

// WrapJournal builds a fault-injecting journal over inner.
func WrapJournal(inner *wal.Segmented, inj *Injector) *Journal {
	return &Journal{Segmented: inner, inj: inj}
}

// Append implements wal.Appender.
func (j *Journal) Append(data []byte) error { return j.Enqueue(data).Wait() }

// AppendBatch implements wal.Appender.
func (j *Journal) AppendBatch(records [][]byte) error { return j.EnqueueBatch(records).Wait() }

// Enqueue implements wal.Appender. The injection point is at enqueue
// time — the same place a real enqueue reserves its log position. A
// scheduled fault fences the inner journal, as a failed write would:
// the record's batch and every later one fail until the journal is
// unfenced.
func (j *Journal) Enqueue(data []byte) *wal.Ticket {
	if err, _ := j.inj.check("journal.append"); err != nil {
		j.Fence(err)
	}
	return j.Segmented.Enqueue(data)
}

// EnqueueBatch implements wal.Appender. Each record in the batch
// consumes one "journal.append" injection slot, so an Nth-append rule
// can fire mid-batch; the whole batch then fails, matching the
// all-or-nothing contract.
func (j *Journal) EnqueueBatch(records [][]byte) *wal.Ticket {
	for range records {
		if err, _ := j.inj.check("journal.append"); err != nil {
			j.Fence(err)
			break
		}
	}
	return j.Segmented.EnqueueBatch(records)
}

// Rotate implements wal.Appender.
func (j *Journal) Rotate() (uint64, error) {
	if err, _ := j.inj.check("journal.rotate"); err != nil {
		return 0, err
	}
	return j.Segmented.Rotate()
}

// CompactThrough implements wal.Appender.
func (j *Journal) CompactThrough(through uint64) (int, error) {
	if err, _ := j.inj.check("journal.compact"); err != nil {
		return 0, err
	}
	return j.Segmented.CompactThrough(through)
}
