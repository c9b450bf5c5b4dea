// Package catalog implements the multimedia database: a catalog of
// media objects, derivation objects and multimedia objects over a
// BLOB store, with the three structuring relationships of the paper —
// InterpretationOf, DerivedFrom (via derivation objects) and
// ComponentOf — plus structural queries, expansion of derived
// objects, materialization, and durable persistence.
//
// The catalog follows the paper's production workflow: "raw material
// is created and added to the database, and then successively refined
// (derived) and composed."
package catalog

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/compose"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/durable"
	"timedmedia/internal/expcache"
	"timedmedia/internal/interp"
	"timedmedia/internal/media"
	"timedmedia/internal/telemetry"
	"timedmedia/internal/timebase"
	"timedmedia/internal/wal"
)

// DefaultCacheCapacity bounds the expansion cache when no option is
// given: 256 MiB of decoded element data.
const DefaultCacheCapacity = 256 << 20

// Errors.
var (
	ErrNotFound     = errors.New("catalog: object not found")
	ErrDupName      = errors.New("catalog: duplicate object name")
	ErrNoInterp     = errors.New("catalog: blob has no interpretation")
	ErrNotMedia     = errors.New("catalog: not a media object")
	ErrNotComposite = errors.New("catalog: not a multimedia object")
	ErrInvalid      = errors.New("catalog: invalid record") // malformed on its own terms
)

// DB is the multimedia database. Safe for concurrent use.
//
// Read side: the visible catalog state lives in an immutable epoch
// View (view.go) — one state of persistent treaps: the version chains
// of objects and interpretations, the name directory and every index;
// a live object is its chain's tail. Readers pin the current view with
// one atomic load and run entirely lock-free; a pinned view stays
// internally consistent forever.
//
// Write side: every mutation — live, replayed or replicated — is a
// walOp (the journal record is the edit) committed by one function,
// commitLocked. Under db.mu it validates the records against the newest
// pending view — the view of the last queued commit, or the published
// one when none is queued — and applies them into a copy-on-write edit
// of it, takes their seqs, reserves their log position and queues the
// commit with the view it makes. It waits for the fsync with db.mu
// dropped — concurrent mutators share group commits (see internal/wal)
// — and then settles the queue in seq order: a commit whose append
// landed has its view published, one atomic swap; one whose append
// failed is discarded with every commit queued behind it, since each
// was built on its view. So every view is exactly the acknowledged
// records up to its Epoch, on a primary and on a follower alike, and
// nothing ever has to be rolled back. db.mu is the one writer lock
// because the WAL's correctness depends on log order equaling sequence
// order, which requires one critical section per enqueue — but no read
// ever takes it.
type DB struct {
	mu     sync.RWMutex
	store  blob.Store
	nextID core.ID

	// nextBlob is one past the newest BLOB an applied interpretation
	// record named; recovery reserves it in the store, so no BLOB ID is
	// handed out twice.
	nextBlob blob.ID

	// cur is the published view; an older epoch is read from its
	// version chains (ViewAt).
	cur atomic.Pointer[View]

	// commits queues, in seq order, the commits whose journal append has
	// not been settled yet; the last one's view is the pending view the
	// next commit builds on.
	commits []*pendingCommit
	// editOwner is the owner token the next edit takes (0: issue a
	// fresh one); viewEdit.view retires it. Guarded by mu.
	editOwner uint64

	cache *expcache.Cache[core.ID, *derive.Value]

	// tel caches the stage histograms (see telemetry.go). An atomic
	// pointer keeps the warm expand path free of locks and branches
	// beyond one load.
	tel atomic.Pointer[dbTelemetry]

	// Durability state (see journal.go / persist.go): the attached
	// mutation journal, the database directory it belongs to, the
	// group-commit straggler window, the sequence number of the last
	// journaled mutation, and what the last Load had to recover.
	wal            wal.Appender
	walDir         string
	dirLock        *durable.DirLock // the lock Open took on walDir, released by CloseJournal
	walBatchWindow time.Duration
	seq            uint64
	recovery       RecoveryInfo

	// saveMu serializes Save and Checkpoint: they take mu only to
	// settle, pin and rotate, and two concurrent checkpoints (autosave
	// racing shutdown) would take the same file number.
	saveMu sync.Mutex

	// manifest is the chain the state stands on in walDir: the last
	// MANIFEST a checkpoint wrote, or the chain Load read (nil when the
	// directory had none and nothing has checkpointed yet). ckptView is
	// the view that chain captured, the base the next delta is diffed
	// against (checkpoint.go); nil when there is none to trust — no
	// checkpoint yet, or a fallback past lost state — which makes the
	// next checkpoint full. Both guarded by saveMu.
	manifest *wal.Manifest
	ckptView *View

	// replayKeep, set by journal replay and dropped by Open's sweep, is
	// what a reopen opens again: the BLOBs interpreted in the state
	// replay started from, and those the replayed records registered.
	replayKeep map[blob.ID]bool

	// walSegmentBytes/Records configure segment rotation thresholds for
	// journals the catalog opens itself; <= 0 keeps the wal defaults.
	walSegmentBytes   int64
	walSegmentRecords int64

	// checkpointHook, when non-nil, is called with a stage name at each
	// boundary inside Save/Checkpoint — "rotated", "capture", "written",
	// "manifest", "compacted" — with no locks held. Crash tests use it
	// to capture the on-disk image between boundaries.
	checkpointHook func(stage string)

	// Transaction-time versioning (versions.go): verRetention bounds
	// each object's version chain.
	verRetention int

	// replayCap, when non-zero, stops journal replay past this seq: the
	// catalog comes back exactly as of transaction-time replayCap. The
	// bitemporal oracle uses it as the ground truth an as_of query must
	// match.
	replayCap uint64
}

// DefaultWALBatchWindow is the group-commit straggler window applied
// when no WithWALBatchWindow option is given: how long a journal
// batch leader waits for concurrent mutators that are mid-append but
// not yet queued. A lone writer never pays it (see wal.WithBatchWindow).
const DefaultWALBatchWindow = 2 * time.Millisecond

// Option configures a DB at construction.
type Option func(*config)

type config struct {
	cacheCapacity     int64
	telemetry         *telemetry.Registry
	walBatchWindow    time.Duration
	walSegmentBytes   int64
	walSegmentRecords int64
	versionRetention  int
	replayCap         uint64
	dirLock           *durable.DirLock
}

// WithCacheCapacity bounds the expansion cache to n bytes of decoded
// element data. n <= 0 disables the bound (unbounded cache).
func WithCacheCapacity(n int64) Option {
	return func(c *config) { c.cacheCapacity = n }
}

// WithTelemetry records the catalog's stage latencies (expand, decode,
// journal append, cache fill, wal fsync, blob read) into reg. Passing
// it at construction also wraps the BLOB store so span reads are
// timed — interpretations hold opened BLOBs directly, so a wrapper
// added later would miss them (SetTelemetry covers everything else).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) { c.telemetry = reg }
}

// WithWALBatchWindow sets the journal's group-commit straggler window
// for journals the catalog opens itself (OpenJournal / Open). d <= 0
// disables the wait; concurrent appends then only coalesce while a
// leader's fsync is in progress.
func WithWALBatchWindow(d time.Duration) Option {
	return func(c *config) { c.walBatchWindow = d }
}

// WithWALSegmentBytes seals a WAL segment once it reaches n bytes, for
// journals the catalog opens itself. n <= 0 keeps the wal default.
func WithWALSegmentBytes(n int64) Option {
	return func(c *config) { c.walSegmentBytes = n }
}

// WithWALSegmentRecords seals a WAL segment once it holds n records,
// for journals the catalog opens itself. n <= 0 keeps the wal default.
func WithWALSegmentRecords(n int64) Option {
	return func(c *config) { c.walSegmentRecords = n }
}

// WithVersionRetention bounds each object's transaction-time version
// chain to its newest n entries. Pruning raises the catalog-wide
// version floor: as_of seqs below the floor answer ErrVersionGone
// rather than a silently incomplete catalog. n <= 0 keeps
// DefaultVersionRetention; n == 1 retains only the committed state.
func WithVersionRetention(n int) Option {
	return func(c *config) { c.versionRetention = n }
}

// WithReplayCap stops journal replay past seq n: Load reconstructs the
// catalog exactly as of transaction-time n, later records are skipped.
// The bitemporal oracle replays with a cap to produce the ground truth
// an as_of=n query must match. Zero means no cap.
func WithReplayCap(n uint64) Option {
	return func(c *config) { c.replayCap = n }
}

// WithDirLock makes Open run under l, a lock on its directory that the
// caller already holds, instead of taking one: CloseJournal then leaves
// it held. A follower holds one lock for its whole life and opens,
// wipes and reopens catalogs under it. nil: Open takes its own.
func WithDirLock(l *durable.DirLock) Option {
	return func(c *config) { c.dirLock = l }
}

// New creates a catalog over the given BLOB store.
func New(store blob.Store, opts ...Option) *DB {
	cfg := config{
		cacheCapacity:    DefaultCacheCapacity,
		walBatchWindow:   DefaultWALBatchWindow,
		versionRetention: DefaultVersionRetention,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.versionRetention <= 0 {
		cfg.versionRetention = DefaultVersionRetention
	}
	if cfg.telemetry != nil {
		store = blob.Observed(store, cfg.telemetry.Histogram(telemetry.StageFamily, telemetry.StageBlobRead))
	}
	db := &DB{
		store:             store,
		nextID:            1,
		walBatchWindow:    cfg.walBatchWindow,
		walSegmentBytes:   cfg.walSegmentBytes,
		walSegmentRecords: cfg.walSegmentRecords,
		verRetention:      cfg.versionRetention,
		replayCap:         cfg.replayCap,
		cache:             expcache.New[core.ID, *derive.Value](cfg.cacheCapacity),
	}
	db.cur.Store(&View{db: db, at: seqNow})
	if cfg.telemetry != nil {
		db.SetTelemetry(cfg.telemetry)
	}
	return db
}

// CacheStats returns a snapshot of the expansion-cache counters.
func (db *DB) CacheStats() expcache.StatsSnapshot { return db.cache.Stats() }

// Store exposes the underlying BLOB store.
func (db *DB) Store() blob.Store { return db.store }

// BlobCorruptions reports how many payload files the store has
// quarantined after a checksum mismatch.
func (db *DB) BlobCorruptions() int64 { return db.store.Stats().Corruptions.Load() }

// RegisterInterpretation permanently associates a sealed
// interpretation with its BLOB (Section 4.1: one complete
// interpretation, built during capture). With a journal attached the
// BLOB is fsynced and the interpretation journaled, so the
// registration survives a crash before the next snapshot.
func (db *DB) RegisterInterpretation(it *interp.Interpretation) error {
	rec := &walOp{Kind: opInterp, Blob: it.BlobID(), it: it}
	// With a journal attached, export the interpretation and flush the
	// BLOB before taking db.mu: the record's payload bytes must be
	// durable before the record can be, and syncing them first keeps the
	// fsync out of the critical section. Wasted only when the
	// registration turns out to be a duplicate.
	db.mu.RLock()
	journaled := db.wal != nil
	db.mu.RUnlock()
	if journaled {
		if err := db.exportInterp(rec); err != nil {
			return err
		}
	}
	_, err := db.commitAdd(rec)
	return err
}

// exportInterp fills rec.Interp with the run record of the
// interpretation rec registers and flushes its BLOB.
func (db *DB) exportInterp(rec *walOp) error {
	var err error
	if rec.Interp, err = interp.AppendExported(nil, interp.Export(rec.it)); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	return db.syncBlob(rec.Blob)
}

// Interpretation returns the interpretation of a BLOB at the current
// epoch.
func (db *DB) Interpretation(id blob.ID) (*interp.Interpretation, error) {
	return db.CurrentView().Interpretation(id)
}

// AddNonDerived registers a media object bound to an interpretation
// track. The descriptor is taken from the track.
func (db *DB) AddNonDerived(name string, blobID blob.ID, track string, attrs map[string]string) (core.ID, error) {
	return db.commitAdd(&walOp{Kind: opNonDerived, Name: name, Blob: blobID, Track: track, Attrs: attrs})
}

// AddDerived registers a derived media object. Inputs must already
// exist (making cycles impossible by construction) and must satisfy
// the operator's signature kinds.
func (db *DB) AddDerived(name, op string, inputs []core.ID, params []byte, attrs map[string]string) (core.ID, error) {
	return db.commitAdd(&walOp{Kind: opDerived, Name: name, Op: op, Inputs: inputs, Params: params, Attrs: attrs})
}

// AddMultimedia registers a multimedia object composing existing
// objects on the given time axis.
func (db *DB) AddMultimedia(name string, axis timebase.System, comps []core.ComponentRef, attrs map[string]string) (core.ID, error) {
	return db.commitAdd(&walOp{Kind: opMultimedia, Name: name, Attrs: attrs, TimeNum: axis.Num, TimeDen: axis.Den, Comps: comps})
}

// AddSync records a synchronization constraint on a multimedia object:
// a copy-on-write revision of the object in a fresh epoch, so readers
// of older epochs keep seeing the un-revised one.
func (db *DB) AddSync(id core.ID, a, b int, maxSkew int64) error {
	_, err := db.commit(&walOp{Kind: opSync, ID: id, A: a, B: b, MaxSkew: maxSkew})
	return err
}

// commitAdd commits one adding record and returns the ID it was given
// (zero for an interpretation).
func (db *DB) commitAdd(rec *walOp) (core.ID, error) {
	if _, err := db.commit(rec); err != nil {
		return 0, err
	}
	return rec.ID, nil
}

// pendingCommit is a queued commit: its records, the ticket of their
// journal append, the view they make, the allocators as the commit
// found them, and, once settled, its outcome.
type pendingCommit struct {
	recs     []*walOp
	t        *wal.Ticket
	view     *View
	prevSeq  uint64
	prevID   core.ID
	recorded bool // the records carried their seqs (replay, replicated apply)
	err      error
}

// commit takes db.mu and commits recs (see commitLocked).
func (db *DB) commit(recs ...*walOp) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.commitLocked(recs)
}

// commitLocked is the one commit path, for live mutators, journal
// replay and replicated apply alike: it queues recs (see queueLocked),
// waits for their append with db.mu dropped, so concurrent mutators
// share group commits (see internal/wal), and settles the queue through
// the commit. When a record fails validation nothing changes and its
// index is returned; a journal failure returns -1. Assumes db.mu is
// held; it is released while waiting.
func (db *DB) commitLocked(recs []*walOp) (int, error) {
	c, i, err := db.queueLocked(recs)
	if c == nil {
		return i, err
	}
	if c.t != nil {
		db.mu.Unlock()
		db.waitRecord(c.t) // timed here; settleLocked reads the outcome
		db.mu.Lock()
	}
	db.settleLocked(c)
	return -1, c.err
}

// queueLocked applies recs in order into an edit of the newest pending
// view (see applyLocked), so each record is validated against
// everything committed or queued before it, earlier items of the same
// batch included; encodes them and reserves their log position (see
// enqueueLocked); and queues the commit with the view it makes. A zero
// rec.Seq takes the next seq — seqs are assigned and the log position
// reserved in one db.mu section, so the log's frame order provably
// equals sequence order, which a follower resuming "from seq N" relies
// on; a non-zero one is a recorded seq and is kept. With no journal and
// nothing queued the view is published at once and no commit is
// returned; neither is one when a record fails validation (its index is
// returned) or encoding (-1). Assumes db.mu is held.
func (db *DB) queueLocked(recs []*walOp) (*pendingCommit, int, error) {
	c := pendingCommit{recs: recs, prevSeq: db.seq, prevID: db.nextID, recorded: recs[0].Seq != 0}
	e := db.beginEditLocked()
	for i, rec := range recs {
		if rec.Seq == 0 {
			rec.Seq = db.seq + 1
		}
		db.seq = max(db.seq, rec.Seq)
		if err := db.applyLocked(e, rec); err != nil {
			db.seq, db.nextID = c.prevSeq, c.prevID
			return nil, i, err
		}
	}
	c.view = e.view(recs[len(recs)-1].Seq)
	var err error
	if c.t, err = db.enqueueLocked(recs); err != nil {
		db.seq, db.nextID = c.prevSeq, c.prevID // nothing reached the log
		return nil, -1, err
	}
	if c.t == nil && len(db.commits) == 0 { // nothing to wait for
		db.publishLocked(&c)
		return nil, -1, nil
	}
	q := new(pendingCommit) // on the heap only when queued
	*q = c
	db.commits = append(db.commits, q)
	return q, -1, nil
}

// settleLocked settles the queued commits in seq order, through c or
// all of them when c is nil: it waits for each one's append — the WAL
// commits in log order, so once c's ticket has resolved the lower ones
// have too — and publishes its view, or, when the append failed,
// discards it and every commit behind it. Assumes db.mu is held.
func (db *DB) settleLocked(c *pendingCommit) {
	for len(db.commits) > 0 && (c == nil || db.commits[0].view.seq <= c.view.seq) {
		h := db.commits[0]
		db.commits = slices.Delete(db.commits, 0, 1)
		if h.t != nil {
			if err := h.t.Wait(); err != nil {
				db.discardLocked(h, err)
				return
			}
		}
		db.publishLocked(h)
	}
}

// discardLocked fails h, whose append failed, and every commit queued
// behind it: each was built on h's view, and none of their records can
// land, because a failed batch fences the journal (see
// wal.Journal.Unfence). Once all of them have resolved, h's IDs are
// handed out again, and so are its seqs when they were recorded ones —
// re-applying the same replicated bytes is then no duplicate; a live
// commit's seqs are never reused, since a record that failed only at
// fsync may still be intact on disk and would beat a later one under
// the same seq on replay. Then the journal is unfenced. Assumes db.mu
// is held.
func (db *DB) discardLocked(h *pendingCommit, err error) {
	h.err = fmt.Errorf("%w: %v", ErrJournal, err)
	for _, c := range db.commits {
		if c.t != nil {
			_ = c.t.Wait() // refused by the fence; c fails with h's error
		}
		c.err = h.err
	}
	db.commits = nil
	db.nextID = h.prevID
	if h.recorded {
		db.seq = h.prevSeq
	}
	if db.wal != nil {
		db.wal.Unfence()
	}
}

// publishLocked makes c's view the current one — one atomic swap, so
// no reader ever sees half a batch — and runs the side effects a commit
// has only once it is acknowledged: the BLOB high-water mark, and a
// deleted object's cache entries. Assumes db.mu is held.
func (db *DB) publishLocked(c *pendingCommit) {
	db.cur.Store(c.view)
	for _, rec := range c.recs {
		switch rec.Kind {
		case opInterp:
			db.nextBlob = max(db.nextBlob, rec.Blob+1)
		case opDelete:
			db.cache.Invalidate(rec.ID)
		}
	}
}

// applyLocked validates one record against the edit's working state —
// the pending view plus the records before it in the same commit — and
// applies it there, stamping rec.Seq into the version chains, where
// the next checkpoint's diff finds it. An add takes the next ID when
// rec.ID is zero (a live add; the ID is written back to the record),
// else its recorded one: replay and replicated apply must reproduce IDs
// exactly, and a log's IDs have gaps wherever a commit failed after
// taking one (see discardLocked). Assumes db.mu is held.
func (db *DB) applyLocked(e *viewEdit, rec *walOp) error {
	var obj *core.Object
	var err error
	switch rec.Kind {
	case opInterp:
		return db.applyInterpLocked(e, rec)
	case opSync:
		if obj, err = buildSync(e, rec); err == nil {
			e.appendVersion(obj, rec.Seq)
		}
		return err
	case opDelete:
		return e.applyDelete(rec.ID, rec.Seq)
	case opNonDerived:
		obj, err = buildNonDerived(e, rec)
	case opDerived:
		obj, err = buildDerived(e, rec)
	case opMultimedia:
		obj, err = buildMultimedia(e, rec)
	case "":
		// Only a batch item reaches here: every other record has its kind
		// from the mutator that built it or from the journal.
		err = fmt.Errorf("%w: item defines neither a blob binding nor a derivation", ErrInvalid)
	default:
		err = fmt.Errorf("%w: unknown op %q", ErrInvalid, rec.Kind)
	}
	if err != nil {
		return err
	}
	if e.lookupName(rec.Name) != nil {
		return fmt.Errorf("%w: %q", ErrDupName, rec.Name)
	}
	obj.ID = rec.ID
	if obj.ID == 0 {
		obj.ID = db.nextID
	} else if e.getByID(obj.ID) != nil {
		return fmt.Errorf("%w: object %v already exists", ErrInvalid, obj.ID)
	}
	if err := obj.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	db.nextID = max(db.nextID, obj.ID+1)
	rec.ID = obj.ID
	e.link(obj)
	e.appendVersion(obj, rec.Seq)
	return nil
}

// applyInterpLocked applies an interpretation registration: a live one
// carries its interpretation, a recorded one is rebuilt over its BLOB
// from the record's run layout. Assumes db.mu is held.
func (db *DB) applyInterpLocked(e *viewEdit, rec *walOp) error {
	c, known := e.interpVers.get(rec.Blob)
	if c.live() {
		return fmt.Errorf("catalog: %v already interpreted", rec.Blob)
	}
	// A tombstone ends a BLOB's history: the next checkpoint unlinks it.
	if known {
		return fmt.Errorf("catalog: %v was collected: %w", rec.Blob, blob.ErrNotFound)
	}
	it := rec.it
	switch {
	case it == nil:
		exp, err := interp.DecodeExported(rec.Interp, rec.Blob)
		if err != nil {
			return fmt.Errorf("interpretation record: %v", err)
		}
		b, err := db.openBlob(rec.Blob) // never collected: see unlinkCollected
		if err != nil {
			return err
		}
		if it, err = interp.Import(exp, b); err != nil {
			return err
		}
	case db.wal != nil && rec.Interp == nil:
		// A journal was attached between RegisterInterpretation's
		// unlocked check and now (rare: attachment happens at startup).
		// Export and sync under the lock — slow but correct.
		if err := db.exportInterp(rec); err != nil {
			return err
		}
	}
	e.appendInterpVersion(it, rec.Seq)
	return nil
}

// buildNonDerived validates a non-derived record against the edit and
// constructs its object; the descriptor is the track's.
func buildNonDerived(e *viewEdit, rec *walOp) (*core.Object, error) {
	it := interpAt(e.interpVers, rec.Blob, seqNow)
	if it == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoInterp, rec.Blob)
	}
	tr, err := it.Track(rec.Track)
	if err != nil {
		return nil, err
	}
	return &core.Object{
		Name:  rec.Name,
		Class: core.ClassNonDerived,
		Kind:  tr.MediaType().Kind,
		Desc:  tr.Descriptor(),
		Attrs: rec.Attrs,
		Blob:  rec.Blob,
		Track: rec.Track,
	}, nil
}

// buildDerived validates and constructs a derived object. A batch
// item's by-name inputs are resolved first, against the edit — so
// against earlier items of the same batch too — and appended to the
// record's inputs in operator argument order, so the journal only ever
// holds IDs.
func buildDerived(e *viewEdit, rec *walOp) (*core.Object, error) {
	if len(rec.inputNames) > 0 {
		inputs := slices.Clip(rec.Inputs) // appending must not reach the caller's array
		for _, nm := range rec.inputNames {
			in := e.lookupName(nm)
			if in == nil {
				return nil, fmt.Errorf("%w: input %q", ErrNotFound, nm)
			}
			inputs = append(inputs, in.ID)
		}
		rec.Inputs, rec.inputNames = inputs, nil
	}
	opImpl, err := derive.Lookup(rec.Op)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	lo, hi := opImpl.Arity()
	if len(rec.Inputs) < lo || (hi >= 0 && len(rec.Inputs) > hi) {
		return nil, fmt.Errorf("%w: %s takes %d..%d inputs, got %d", ErrInvalid, rec.Op, lo, hi, len(rec.Inputs))
	}
	for i, in := range rec.Inputs {
		src := e.getByID(in)
		if src == nil {
			return nil, fmt.Errorf("%w: input %v", ErrNotFound, in)
		}
		if src.Class == core.ClassMultimedia {
			return nil, fmt.Errorf("%w: input %v is a multimedia object", ErrNotMedia, in)
		}
		if want := opImpl.ArgKind(i); src.Kind != want {
			return nil, fmt.Errorf("%w: %s input %d is %v, want %v", ErrInvalid, rec.Op, i, src.Kind, want)
		}
	}
	return &core.Object{
		Name:       rec.Name,
		Class:      core.ClassDerived,
		Kind:       opImpl.ResultKind(),
		Attrs:      rec.Attrs,
		Derivation: &core.Derivation{Op: rec.Op, Inputs: slices.Clone(rec.Inputs), Params: slices.Clone(rec.Params)},
	}, nil
}

// buildMultimedia validates a multimedia record against the edit and
// constructs its object.
func buildMultimedia(e *viewEdit, rec *walOp) (*core.Object, error) {
	axis, err := timebase.New(rec.TimeNum, rec.TimeDen)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	for _, c := range rec.Comps {
		if e.getByID(c.Object) == nil {
			return nil, fmt.Errorf("%w: component %v", ErrNotFound, c.Object)
		}
	}
	comps := slices.Clone(rec.Comps)
	return &core.Object{
		Name:       rec.Name,
		Class:      core.ClassMultimedia,
		Attrs:      rec.Attrs,
		Multimedia: &core.MultimediaSpec{Time: axis, Components: comps},
	}, nil
}

// buildSync validates a sync record against the edit and returns the
// revised object.
func buildSync(e *viewEdit, rec *walOp) (*core.Object, error) {
	obj := e.getByID(rec.ID)
	if obj == nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, rec.ID)
	}
	if obj.Class != core.ClassMultimedia {
		return nil, fmt.Errorf("%w: %v", ErrNotComposite, rec.ID)
	}
	if n := len(obj.Multimedia.Components); rec.A < 0 || rec.A >= n || rec.B < 0 || rec.B >= n {
		return nil, fmt.Errorf("%w: %w", ErrInvalid, compose.ErrNoComponent)
	}
	if rec.MaxSkew < 0 {
		return nil, fmt.Errorf("%w: %w", ErrInvalid, compose.ErrBadSkew)
	}
	rev := obj.Clone()
	rev.Multimedia.Syncs = append(rev.Multimedia.Syncs, compose.SyncConstraint{A: rec.A, B: rec.B, MaxSkew: rec.MaxSkew})
	return rev, nil
}

// enqueueLocked encodes recs and reserves their log position without
// waiting for durability (see waitRecord). More than one record is an
// atomic WAL batch: one write, one fsync, one outcome. A replicated
// record is re-journaled as the bytes it arrived as, alone or in a
// run. With no journal attached nothing is encoded and the ticket is
// nil. Assumes db.mu is held.
func (db *DB) enqueueLocked(recs []*walOp) (*wal.Ticket, error) {
	if db.wal == nil {
		return nil, nil
	}
	if len(recs) == 1 { // a lone record needs no frame list
		data, err := recordBytes(recs[0])
		if err != nil {
			return nil, err
		}
		return db.wal.Enqueue(data), nil
	}
	frames := make([][]byte, len(recs))
	for i, rec := range recs {
		var err error
		if frames[i], err = recordBytes(rec); err != nil {
			return nil, err
		}
	}
	return db.wal.EnqueueBatch(frames), nil
}

// recordBytes is what rec is journaled as: the bytes a replicated
// record arrived as, else its encoding.
func recordBytes(rec *walOp) ([]byte, error) {
	if rec.raw != nil {
		return rec.raw, nil
	}
	return encodeOp(rec)
}

// Get returns the object with the given ID at the current epoch. The
// returned object is immutable shared state; use
// (*core.Object).Clone for a mutable copy.
func (db *DB) Get(id core.ID) (*core.Object, error) {
	return db.CurrentView().Get(id)
}

// Lookup returns the object with the given name at the current epoch.
// The returned object is immutable shared state.
func (db *DB) Lookup(name string) (*core.Object, error) {
	return db.CurrentView().Lookup(name)
}

// Len returns the number of objects at the current epoch.
func (db *DB) Len() int {
	return db.CurrentView().Len()
}

// Select returns objects satisfying pred, ordered by ID — the
// structural querying the paper motivates ("it is possible to issue
// queries which select a specific sound track, or select a specific
// duration, or perhaps retrieve frames at a specific visual
// fidelity").
//
// The returned objects are deep copies (see core.Object.Clone):
// callers may mutate them — attribute maps included — without
// corrupting shared state. pred itself runs on the epoch's shared
// objects and must not retain or modify them.
func (db *DB) Select(pred func(*core.Object) bool) []*core.Object {
	return db.CurrentView().Select(pred)
}

// ByKind selects media objects of a kind via the kind index. The
// result is deep-copied; see Select.
func (db *DB) ByKind(k media.Kind) []*core.Object {
	return db.CurrentView().SelectIndexed(IndexedQuery{Kind: &k}, nil, -1)
}

// ByAttr selects objects with attribute key = value (e.g.
// language = "fr") via the attribute index. The result is
// deep-copied; see Select.
func (db *DB) ByAttr(key, value string) []*core.Object {
	return db.CurrentView().SelectIndexed(IndexedQuery{Attrs: []AttrEq{{Key: key, Value: value}}}, nil, -1)
}

// ByQuality selects media objects whose descriptor carries the given
// quality factor. The result is deep-copied; see Select.
func (db *DB) ByQuality(q media.Quality) []*core.Object {
	return db.Select(func(o *core.Object) bool {
		return o.Desc != nil && o.Desc.QualityFactor() == q
	})
}
