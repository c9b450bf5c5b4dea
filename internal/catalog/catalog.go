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
)

// DB is the multimedia database. Safe for concurrent use.
//
// Read side: the visible catalog state lives in an immutable epoch
// View (view.go) — sharded persistent treaps over the version chains
// of objects and interpretations, the name directory and every index;
// a live object is its chain's tail. Readers pin the current view with
// one atomic load and run entirely lock-free; a pinned view stays
// internally consistent forever.
//
// Write side: every public mutator builds a walOp — the journal record
// is the edit — and hands it to one of two commit disciplines. Adds
// (objects alone or as a batch, interpretation registrations) are
// staged commits (commitAdds): validated against the current view and
// staged, invisible to every reader, under db.mu, journaled *outside*
// db.mu — concurrent mutators share group commits (see internal/wal)
// instead of serializing one fsync each — and settled in seq order:
// published as one copy-on-write view swapped in atomically, or
// unstaged if the append failed. Syncs and deletes are serial commits
// (commitSerial): settle → validate → journal → apply under db.mu. So
// every view is exactly the acknowledged records up to its Epoch, and
// applyLocked is the one place a durable record becomes catalog state
// — live, in crash replay and in replicated apply. db.mu is the one
// writer lock because the WAL's correctness depends on log order
// equaling sequence order, which requires one critical section per
// enqueue — but no read ever takes it.
type DB struct {
	mu     sync.RWMutex
	store  blob.Store
	nextID core.ID

	// nextBlob is one past the newest BLOB an applied interpretation
	// record named; recovery reserves it in the store, so no BLOB ID is
	// handed out twice.
	nextBlob blob.ID

	// cur is the published view; ring retains recent predecessors for
	// epoch-pinned reads (ViewAt).
	cur  atomic.Pointer[View]
	ring *epochRing

	// staged holds, by name, the objects whose journal record is not yet
	// durable: the name is reserved, the object invisible to every
	// reader until published into a view. stagedInterps is the same for
	// interpretations, by BLOB; commits queues their commits in seq order.
	staged        map[string]*core.Object
	stagedInterps map[blob.ID]*interp.Interpretation
	commits       []*stagedCommit

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
	walBatchWindow time.Duration
	seq            uint64
	recovery       RecoveryInfo

	// saveMu serializes Save and Checkpoint: they take mu only to
	// settle, pin and rotate, and two concurrent snapshots (autosave
	// racing shutdown) would collide on the same .tmp/.bak files.
	saveMu sync.Mutex

	// manifest mirrors the last durable MANIFEST for walDir (nil before
	// the first checkpoint this process, or when the directory has
	// none). ckptView is the view that checkpoint captured, the base the
	// next delta is diffed against (checkpoint.go); nil when there is
	// none to trust — no checkpoint yet, or a degraded recovery — which
	// makes the next checkpoint full. Both guarded by saveMu.
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
	shards            int
	epochRetention    int
	versionRetention  int
	replayCap         uint64
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

// WithShards partitions the catalog state into n hash-by-name shards.
// n <= 0 keeps DefaultShards. More shards mean smaller copy-on-write
// units per commit and a cheaper checkpoint diff.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithEpochRetention keeps the last n epochs before the current one
// pinnable via ViewAt (the HTTP epoch= parameter). n <= 0 keeps
// DefaultEpochRetention; n == 1 still answers the current epoch and
// its one predecessor.
func WithEpochRetention(n int) Option {
	return func(c *config) { c.epochRetention = n }
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

// New creates a catalog over the given BLOB store.
func New(store blob.Store, opts ...Option) *DB {
	cfg := config{
		cacheCapacity:    DefaultCacheCapacity,
		walBatchWindow:   DefaultWALBatchWindow,
		shards:           DefaultShards,
		epochRetention:   DefaultEpochRetention,
		versionRetention: DefaultVersionRetention,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards <= 0 {
		cfg.shards = DefaultShards
	}
	if cfg.epochRetention <= 0 {
		cfg.epochRetention = DefaultEpochRetention
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
		ring:              newEpochRing(cfg.epochRetention),
		staged:            map[string]*core.Object{},
		stagedInterps:     map[blob.ID]*interp.Interpretation{},
		walBatchWindow:    cfg.walBatchWindow,
		walSegmentBytes:   cfg.walSegmentBytes,
		walSegmentRecords: cfg.walSegmentRecords,
		verRetention:      cfg.versionRetention,
		replayCap:         cfg.replayCap,
		cache:             expcache.New[core.ID, *derive.Value](cfg.cacheCapacity),
	}
	db.cur.Store(newView(db, cfg.shards))
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
	return db.commitSerial(&walOp{Kind: opSync, ID: id, A: a, B: b, MaxSkew: maxSkew})
}

// commitAdd commits one adding record and returns the ID it was given
// (zero for an interpretation).
func (db *DB) commitAdd(rec *walOp) (core.ID, error) {
	one := [1]*walOp{rec}
	if _, err := db.commitAdds(one[:]); err != nil {
		return 0, err
	}
	return rec.ID, nil
}

// stagedCommit is a queued staged commit and, once settled, its outcome.
type stagedCommit struct {
	recs []*walOp
	t    *wal.Ticket
	err  error
}

// commitAdds is the staged commit discipline, for records that only
// add — objects, alone or as a batch, and interpretation
// registrations. Every record is validated and staged, invisible to
// every reader, and the seqs are assigned, the log position reserved
// and the commit queued, in one db.mu section; the fsync is waited for
// outside the lock, so concurrent mutators share group commits (see
// internal/wal); then the FIFO is settled through the commit. When a
// record fails validation nothing stays staged and its index is
// returned; a journal failure returns -1.
func (db *DB) commitAdds(recs []*walOp) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, rec := range recs {
		if err := db.stageOpLocked(rec, recs[:i]); err != nil {
			db.unstageLocked(recs[:i])
			return i, err
		}
	}
	t, err := db.enqueueLocked(recs)
	c := &stagedCommit{recs: recs, t: t, err: err}
	db.commits = append(db.commits, c)
	if t != nil {
		db.mu.Unlock()
		db.waitRecord(t) // timed here; settleLocked reads the outcome
		db.mu.Lock()
	}
	db.settleLocked(c)
	return -1, c.err
}

// settleLocked publishes or unstages the queued commits in seq order,
// through c or all of them when c is nil. The WAL commits in log order,
// so once c's ticket has resolved the lower ones have too. Assumes
// db.mu is held.
func (db *DB) settleLocked(c *stagedCommit) {
	for len(db.commits) > 0 && (c == nil || db.commits[0].recs[0].Seq <= c.recs[0].Seq) {
		h := db.commits[0]
		db.commits = slices.Delete(db.commits, 0, 1)
		if h.t != nil {
			if err := h.t.Wait(); err != nil {
				h.err = fmt.Errorf("%w: %v", ErrJournal, err)
			}
		}
		if h.err != nil {
			db.unstageLocked(h.recs)
		} else {
			db.publishLocked(h.recs)
		}
	}
}

// commitSerial is the other discipline, for records that revise or
// remove what readers can already see — a sync, a delete: settle (so
// nothing is staged) → validate → journal → apply, all under db.mu.
// Nothing is published before its record is durable, so nothing ever
// has to be rolled back, and no competing mutation slips between the
// validation and the apply: a derivation staged against an object
// while its delete record was in flight would diverge live state from
// replay. The price is an fsync waited for under the lock; both
// mutators are rare — no served route calls either.
func (db *DB) commitSerial(rec *walOp) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.settleLocked(nil)
	// Validate before reserving a log position: a record journaled for
	// a doomed mutation would fail every replay.
	var err error
	switch rec.Kind {
	case opSync:
		_, err = db.buildSyncLocked(rec)
	case opDelete:
		_, err = db.checkDeletable(rec.ID)
	}
	if err != nil {
		return err
	}
	one := [1]*walOp{rec}
	t, err := db.enqueueLocked(one[:])
	if err == nil {
		err = db.waitRecord(t)
	}
	if err != nil {
		return err
	}
	return db.applyLocked(rec)
}

// stageOpLocked validates an adding record against the current epoch,
// builds what it adds and stages it — an object under its name, an
// interpretation under its BLOB — invisible to readers, the key
// reserved against concurrent duplicates. prior holds the records
// staged before rec in the same commit, whose objects a batch item may
// name as inputs. A zero rec.ID takes the next ID (a live add; it is
// written back to the record); a non-zero one is forced, because
// journal replay and replicated apply must reproduce recorded IDs
// exactly and re-allocation would not: a commit that fails after a
// later one took the next ID leaves a gap (see unstageLocked) that
// counting up would close. Assumes db.mu is held, and for a forced ID
// that nothing is staged (see applyLocked).
func (db *DB) stageOpLocked(rec *walOp, prior []*walOp) error {
	cur := db.cur.Load()
	var obj *core.Object
	var err error
	switch rec.Kind {
	case opInterp:
		_, dup := db.stagedInterps[rec.Blob]
		c, known := cur.interpVers.get(rec.Blob)
		if dup || c.live() {
			return fmt.Errorf("catalog: %v already interpreted", rec.Blob)
		}
		// A tombstone ends a BLOB's history: the next checkpoint unlinks it.
		if known {
			return fmt.Errorf("catalog: %v was collected: %w", rec.Blob, blob.ErrNotFound)
		}
		if db.wal != nil && rec.Interp == nil {
			// A journal was attached between RegisterInterpretation's
			// unlocked check and now (rare: attachment happens at
			// startup). Export and sync under the lock — slow but correct.
			if err := db.exportInterp(rec); err != nil {
				return err
			}
		}
		db.stagedInterps[rec.Blob] = rec.it
		return nil
	case opNonDerived:
		obj, err = buildNonDerived(cur, rec)
	case opDerived:
		obj, err = db.buildDerivedLocked(rec, prior)
	case opMultimedia:
		obj, err = buildMultimedia(cur, rec)
	default:
		// Only a batch item reaches here: every other record has its kind
		// from the mutator that built it or from applyLocked's dispatch.
		err = errors.New("item defines neither a blob binding nor a derivation")
	}
	if err != nil {
		return err
	}
	_, dup := db.staged[rec.Name]
	if dup || cur.shardFor(rec.Name).lookup(rec.Name, seqNow) != nil {
		return fmt.Errorf("%w: %q", ErrDupName, rec.Name)
	}
	obj.ID = rec.ID
	if obj.ID == 0 {
		obj.ID = db.nextID
	} else if cur.getByID(obj.ID) != nil {
		return fmt.Errorf("catalog: object %v already exists", obj.ID)
	}
	if err := obj.Validate(); err != nil {
		return err
	}
	if obj.ID >= db.nextID {
		db.nextID = obj.ID + 1
	}
	rec.ID = obj.ID
	db.staged[rec.Name] = obj
	return nil
}

// stagedIn returns the object that one of prior — the records staged
// earlier in the same commit — produced under id, or nil. A commit
// stages in one db.mu section, so its IDs count up from prior[0].ID and
// everything other writers have in flight lies below. Assumes db.mu is
// held.
func (db *DB) stagedIn(prior []*walOp, id core.ID) *core.Object {
	if len(prior) == 0 || id < prior[0].ID || id-prior[0].ID >= core.ID(len(prior)) {
		return nil
	}
	return db.staged[prior[id-prior[0].ID].Name]
}

// buildNonDerived validates a non-derived record against cur and
// constructs (but does not stage) its object; the descriptor is the
// track's.
func buildNonDerived(cur *View, rec *walOp) (*core.Object, error) {
	it, err := cur.Interpretation(rec.Blob)
	if err != nil {
		return nil, err
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

// buildDerivedLocked validates and constructs a derived object. A
// batch item's by-name inputs are resolved first — against the current
// epoch, then against prior (see stagedIn), never against another
// writer's in-flight staging — and appended to the record's inputs in
// operator argument order, so the journal only ever holds IDs. Assumes
// db.mu is held.
func (db *DB) buildDerivedLocked(rec *walOp, prior []*walOp) (*core.Object, error) {
	cur := db.cur.Load()
	if len(rec.inputNames) > 0 {
		inputs := slices.Clip(rec.Inputs) // appending must not reach the caller's array
		for _, nm := range rec.inputNames {
			in := cur.shardFor(nm).lookup(nm, seqNow)
			if in == nil {
				if o := db.staged[nm]; o != nil && db.stagedIn(prior, o.ID) == o {
					in = o
				}
			}
			if in == nil {
				return nil, fmt.Errorf("%w: input %q", ErrNotFound, nm)
			}
			inputs = append(inputs, in.ID)
		}
		rec.Inputs, rec.inputNames = inputs, nil
	}
	opImpl, err := derive.Lookup(rec.Op)
	if err != nil {
		return nil, err
	}
	lo, hi := opImpl.Arity()
	if len(rec.Inputs) < lo || (hi >= 0 && len(rec.Inputs) > hi) {
		return nil, fmt.Errorf("catalog: %s takes %d..%d inputs, got %d", rec.Op, lo, hi, len(rec.Inputs))
	}
	for i, in := range rec.Inputs {
		src := cur.getByID(in)
		if src == nil {
			src = db.stagedIn(prior, in)
		}
		if src == nil {
			return nil, fmt.Errorf("%w: input %v", ErrNotFound, in)
		}
		if src.Class == core.ClassMultimedia {
			return nil, fmt.Errorf("%w: input %v is a multimedia object", ErrNotMedia, in)
		}
		if want := opImpl.ArgKind(i); src.Kind != want {
			return nil, fmt.Errorf("catalog: %s input %d is %v, want %v", rec.Op, i, src.Kind, want)
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

// buildMultimedia validates a multimedia record against cur and
// constructs its object.
func buildMultimedia(cur *View, rec *walOp) (*core.Object, error) {
	axis, err := timebase.New(rec.TimeNum, rec.TimeDen)
	if err != nil {
		return nil, err
	}
	for _, c := range rec.Comps {
		if cur.getByID(c.Object) == nil {
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

// buildSyncLocked validates a sync record against the current epoch
// and returns the revised object without publishing it. Assumes db.mu
// is held.
func (db *DB) buildSyncLocked(rec *walOp) (*core.Object, error) {
	obj := db.cur.Load().getByID(rec.ID)
	if obj == nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, rec.ID)
	}
	if obj.Class != core.ClassMultimedia {
		return nil, fmt.Errorf("%w: %v", ErrNotComposite, rec.ID)
	}
	if n := len(obj.Multimedia.Components); rec.A < 0 || rec.A >= n || rec.B < 0 || rec.B >= n {
		return nil, compose.ErrNoComponent
	}
	if rec.MaxSkew < 0 {
		return nil, compose.ErrBadSkew
	}
	rev := obj.Clone()
	rev.Multimedia.Syncs = append(rev.Multimedia.Syncs, compose.SyncConstraint{A: rec.A, B: rec.B, MaxSkew: rec.MaxSkew})
	return rev, nil
}

// enqueueLocked assigns the next journal sequence numbers to recs,
// encodes them, and reserves their log position — all in one db.mu
// critical section, so the log's frame order provably equals sequence
// order. Replication depends on that equality: a follower resuming
// "from seq N" can trust that every frame after N's log position
// carries a seq > N, with no reordered stragglers behind it. More than
// one record is an atomic WAL batch: one write, one fsync, one
// outcome. Durability is NOT waited for here (see waitRecord). With no
// journal attached the sequence numbers still advance — every committed
// mutation gets a distinct transaction-time stamp for its version
// chain — but nothing is encoded and the ticket is nil. Sequence
// numbers are never reused after a failure: a record that failed only
// at fsync may still be intact on disk, and a later acknowledged record
// under the same seq would lose to it on replay; gaps are harmless to
// the replay skip check. Assumes db.mu is held.
func (db *DB) enqueueLocked(recs []*walOp) (*wal.Ticket, error) {
	for _, rec := range recs {
		db.seq++
		rec.Seq = db.seq
	}
	if db.wal == nil {
		return nil, nil
	}
	if len(recs) == 1 { // a lone record needs no frame list
		data, err := encodeOp(recs[0])
		if err != nil {
			return nil, err
		}
		return db.wal.Enqueue(data), nil
	}
	frames := make([][]byte, len(recs))
	for i, rec := range recs {
		var err error
		if frames[i], err = encodeOp(rec); err != nil {
			return nil, err
		}
	}
	return db.wal.EnqueueBatch(frames), nil
}

// publishLocked moves what recs staged into one new view — one
// copy-on-write edit, one atomic view swap, so no reader ever sees
// half a batch — at the seq of its last record, and stamps each
// record's seq into the version chains. Assumes db.mu is held.
func (db *DB) publishLocked(recs []*walOp) {
	e := db.beginEditLocked()
	for _, rec := range recs {
		if rec.Kind == opInterp {
			it := db.stagedInterps[rec.Blob]
			delete(db.stagedInterps, rec.Blob)
			e.appendInterpVersion(it, rec.Seq)
			db.nextBlob = max(db.nextBlob, it.BlobID()+1)
			continue
		}
		obj := db.staged[rec.Name]
		delete(db.staged, rec.Name)
		e.link(obj)
		e.appendVersion(obj, rec.Seq)
	}
	db.commitEditLocked(e, recs[len(recs)-1].Seq)
}

// unstageLocked rolls recs' staging back after a failed validation or
// journal append: the reservations are released and, newest first, an
// ID that is still the newest goes back to the allocator. Assumes
// db.mu is held.
func (db *DB) unstageLocked(recs []*walOp) {
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		if rec.Kind == opInterp {
			delete(db.stagedInterps, rec.Blob)
			continue
		}
		delete(db.staged, rec.Name)
		if rec.ID == db.nextID-1 {
			db.nextID--
		}
	}
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
	return db.SelectIndexed(IndexedQuery{Kind: &k}, nil, -1)
}

// ByAttr selects objects with attribute key = value (e.g.
// language = "fr") via the attribute index. The result is
// deep-copied; see Select.
func (db *DB) ByAttr(key, value string) []*core.Object {
	return db.SelectIndexed(IndexedQuery{Attrs: []AttrEq{{Key: key, Value: value}}}, nil, -1)
}

// ByQuality selects media objects whose descriptor carries the given
// quality factor. The result is deep-copied; see Select.
func (db *DB) ByQuality(q media.Quality) []*core.Object {
	return db.Select(func(o *core.Object) bool {
		return o.Desc != nil && o.Desc.QualityFactor() == q
	})
}
