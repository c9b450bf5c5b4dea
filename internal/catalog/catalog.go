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
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
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
// View (view.go) — sharded persistent treaps over objects, names,
// interpretations and every index. Readers pin the current view with
// one atomic load and run entirely lock-free; a pinned view stays
// internally consistent forever.
//
// Write side / commit protocol: with a journal attached, a mutation
// is validated against the current view and staged (invisible to
// every reader) under db.mu, then journaled *outside* db.mu —
// concurrent mutators share group commits (see internal/wal) instead
// of serializing one fsync each. Once the record is durable the
// object is published: a new copy-on-write epoch containing it is
// built and swapped in atomically. A failed append unstages it, so
// readers only ever observe acknowledged mutations. db.mu stays a
// single global writer lock because the WAL's correctness depends on
// log order equaling sequence order, which requires one critical
// section per enqueue — but no read ever takes it.
type DB struct {
	mu      sync.RWMutex
	store   blob.Store
	nextID  core.ID
	nShards int

	// cur is the published epoch; ring retains recent predecessors for
	// epoch-pinned reads (ViewAt).
	cur  atomic.Pointer[View]
	ring *epochRing

	// staged holds objects whose journal record is not yet durable:
	// their names are reserved in reservedNames but they are invisible
	// to every reader until published into a view. stagedInterps is
	// the same for interpretations.
	staged        map[core.ID]*core.Object
	reservedNames map[string]core.ID
	stagedInterps map[blob.ID]*interp.Interpretation

	// commitGate serializes snapshots against in-flight commits:
	// mutators hold the read side from stage to ack/rollback, and
	// Save briefly takes the write side so a snapshot never captures
	// (or races the rollback of) a mutation that is not yet durable.
	// Lock order: saveMu → commitGate → mu.
	commitGate sync.RWMutex

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

	// saveMu serializes Save calls: Save only takes mu.RLock, and two
	// concurrent snapshots (autosave racing shutdown) would collide on
	// the same .tmp/.bak files.
	saveMu sync.Mutex

	// Dirty-state tracking for incremental checkpoints (checkpoint.go),
	// partitioned by shard like the views themselves: per shard, the
	// objects touched since the last durable checkpoint and the ones
	// deleted since; interpretation dirt stays global (interps are not
	// sharded). Mutated only under mu's write lock; Save/Checkpoint
	// swap the sets out while holding mu.RLock after the commitGate
	// dance — safe, because every mutator must take the write lock to
	// stage before it can touch them.
	dirty          []dirtyShard
	dirtyInterps   map[blob.ID]struct{}
	dirtyDelInterp map[blob.ID]struct{}

	// manifest mirrors the last durable MANIFEST for walDir (nil before
	// the first checkpoint this process, or when the directory has
	// none). Guarded by saveMu.
	manifest *wal.Manifest

	// walSegmentBytes/Records configure segment rotation thresholds for
	// journals the catalog opens itself; <= 0 keeps the wal defaults.
	walSegmentBytes   int64
	walSegmentRecords int64

	// checkpointHook, when non-nil, is called with a stage name at each
	// durability boundary inside Save/Checkpoint — "rotated", "written",
	// "manifest", "compacted" — with no locks held. Crash tests use it
	// to capture the on-disk image between boundaries.
	checkpointHook func(stage string)

	// Transaction-time versioning (versions.go): verRetention bounds
	// each object's version chain; stagedSeq remembers the journal seq
	// assigned to each staged object so publishLocked can stamp its
	// version entry.
	verRetention int
	stagedSeq    map[core.ID]uint64

	// lostBlobs holds the registrations a snapshot or journal record
	// named whose BLOB the store no longer has, with the store's error;
	// lostObjs the objects replay could not rebuild because they read
	// one (see applyLostLocked). Recovery settles and empties both
	// (checkLostBlobs); replicated apply only remembers.
	lostBlobs map[blob.ID]error
	lostObjs  map[core.ID]error

	// replayCap, when non-zero, stops journal replay past this seq: the
	// catalog comes back exactly as of transaction-time replayCap. The
	// bitemporal oracle uses it as the ground truth an as_of query must
	// match.
	replayCap uint64
}

// dirtyShard tracks one shard's uncheckpointed churn.
type dirtyShard struct {
	objs map[core.ID]struct{}
	del  map[core.ID]struct{}
}

func newDirtyShards(n int) []dirtyShard {
	out := make([]dirtyShard, n)
	for i := range out {
		out[i] = dirtyShard{objs: map[core.ID]struct{}{}, del: map[core.ID]struct{}{}}
	}
	return out
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
// units per commit and finer checkpoint dirty tracking.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithEpochRetention keeps the last n published epochs pinnable via
// ViewAt (the HTTP epoch= parameter). n <= 0 keeps
// DefaultEpochRetention; n == 1 effectively disables pinning past the
// current epoch.
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
		nShards:           cfg.shards,
		ring:              newEpochRing(cfg.epochRetention),
		staged:            map[core.ID]*core.Object{},
		reservedNames:     map[string]core.ID{},
		stagedInterps:     map[blob.ID]*interp.Interpretation{},
		dirty:             newDirtyShards(cfg.shards),
		dirtyInterps:      map[blob.ID]struct{}{},
		dirtyDelInterp:    map[blob.ID]struct{}{},
		walBatchWindow:    cfg.walBatchWindow,
		walSegmentBytes:   cfg.walSegmentBytes,
		walSegmentRecords: cfg.walSegmentRecords,
		verRetention:      cfg.versionRetention,
		stagedSeq:         map[core.ID]uint64{},
		lostBlobs:         map[blob.ID]error{},
		lostObjs:          map[core.ID]error{},
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

// markDirtyLocked records an object's shard-local churn for the next
// incremental checkpoint. Assumes db.mu is held.
func (db *DB) markDirtyLocked(name string, id core.ID) {
	d := &db.dirty[shardOf(name, db.nShards)]
	d.objs[id] = struct{}{}
	delete(d.del, id)
}

// RegisterInterpretation permanently associates a sealed
// interpretation with its BLOB (Section 4.1: one complete
// interpretation, built during capture). With a journal attached the
// BLOB is fsynced and the interpretation journaled, so the
// registration survives a crash before the next snapshot.
func (db *DB) RegisterInterpretation(it *interp.Interpretation) error {
	db.commitGate.RLock()
	defer db.commitGate.RUnlock()

	// With a journal attached, export the interpretation and flush the
	// BLOB before taking db.mu: the record's log position is reserved
	// under the lock (see enqueueLocked), and its payload bytes must be
	// durable before the record can be — syncing them first keeps the
	// fsync out of the critical section. Wasted only when the
	// registration turns out to be a duplicate.
	var interpPayload []byte
	db.mu.RLock()
	journaled := db.wal != nil
	db.mu.RUnlock()
	if journaled {
		p, err := exportInterp(it)
		if err != nil {
			return err
		}
		interpPayload = p
		if err := db.syncBlob(it.BlobID()); err != nil {
			return err
		}
	}

	db.mu.Lock()
	if db.cur.Load().interps.has(it.BlobID()) {
		db.mu.Unlock()
		return fmt.Errorf("catalog: %v already interpreted", it.BlobID())
	}
	if _, dup := db.stagedInterps[it.BlobID()]; dup {
		db.mu.Unlock()
		return fmt.Errorf("catalog: %v already interpreted", it.BlobID())
	}
	if db.wal == nil {
		// No journal: still burn a sequence number so the registration
		// gets a distinct transaction-time stamp in its version chain.
		rec := &walOp{Kind: opInterp, Blob: it.BlobID()}
		if _, err := db.enqueueLocked(rec); err != nil {
			db.mu.Unlock()
			return err
		}
		db.publishInterpLocked(it, rec.Seq)
		db.mu.Unlock()
		return nil
	}
	if interpPayload == nil {
		// A journal was attached between the unlocked check and now
		// (rare: attachment happens at startup). Export and sync under
		// the lock — slow but correct.
		p, err := exportInterp(it)
		if err != nil {
			db.mu.Unlock()
			return err
		}
		interpPayload = p
		if err := db.syncBlob(it.BlobID()); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	rec := &walOp{Kind: opInterp, Blob: it.BlobID(), Interp: interpPayload}
	// Stage: the registration is invisible to readers (and to
	// AddNonDerived's interpretation lookup) until the record is
	// durable; the blob ID is reserved so a concurrent duplicate
	// registration fails.
	db.stagedInterps[it.BlobID()] = it
	t, err := db.enqueueLocked(rec)
	db.mu.Unlock()
	if err == nil {
		err = db.waitRecord(t)
	}
	db.mu.Lock()
	delete(db.stagedInterps, it.BlobID())
	if err == nil {
		db.publishInterpLocked(it, rec.Seq)
	}
	db.mu.Unlock()
	return err
}

// publishInterpLocked publishes an interpretation as a new epoch,
// stamps it into its version chain at seq, and marks it dirty for the
// next checkpoint. Assumes db.mu is held.
func (db *DB) publishInterpLocked(it *interp.Interpretation, seq uint64) {
	e := db.beginEditLocked()
	e.setInterp(it)
	e.appendInterpVersion(it, seq)
	db.commitEditLocked(e)
	db.dirtyInterps[it.BlobID()] = struct{}{}
	delete(db.dirtyDelInterp, it.BlobID())
}

// exportInterp gob-encodes an interpretation for an opInterp record.
func exportInterp(it *interp.Interpretation) ([]byte, error) {
	exp, err := interp.Export(it)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(exp); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	return buf.Bytes(), nil
}

// Interpretation returns the interpretation of a BLOB at the current
// epoch.
func (db *DB) Interpretation(id blob.ID) (*interp.Interpretation, error) {
	return db.CurrentView().Interpretation(id)
}

// AddNonDerived registers a media object bound to an interpretation
// track. The descriptor is taken from the track.
func (db *DB) AddNonDerived(name string, blobID blob.ID, track string, attrs map[string]string) (core.ID, error) {
	db.commitGate.RLock()
	defer db.commitGate.RUnlock()
	db.mu.Lock()
	obj, err := db.buildNonDerivedLocked(name, blobID, track, attrs)
	if err != nil {
		db.mu.Unlock()
		return 0, err
	}
	id, err := db.stageLocked(obj, 0)
	if err != nil {
		db.mu.Unlock()
		return 0, err
	}
	rec := &walOp{Kind: opNonDerived, ID: id, Name: name, Blob: blobID, Track: track, Attrs: attrs}
	t, err := db.enqueueStagedLocked(rec, id)
	db.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := db.commitObject(t, id); err != nil {
		return 0, err
	}
	return id, nil
}

// buildNonDerivedLocked validates inputs against the current epoch and
// constructs (but does not stage) the object. Assumes db.mu is held.
func (db *DB) buildNonDerivedLocked(name string, blobID blob.ID, track string, attrs map[string]string) (*core.Object, error) {
	it, ok := db.cur.Load().interps.get(blobID)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoInterp, blobID)
	}
	tr, err := it.Track(track)
	if err != nil {
		return nil, err
	}
	return &core.Object{
		Name:  name,
		Class: core.ClassNonDerived,
		Kind:  tr.MediaType().Kind,
		Desc:  tr.Descriptor(),
		Attrs: attrs,
		Blob:  blobID,
		Track: track,
	}, nil
}

// addNonDerivedLocked stages and immediately publishes — the replay /
// replication-apply path, where the record is already durable. want
// is the recorded ID, seq its recorded sequence number (the version
// stamp). Assumes db.mu is held.
func (db *DB) addNonDerivedLocked(want core.ID, seq uint64, name string, blobID blob.ID, track string, attrs map[string]string) (core.ID, error) {
	obj, err := db.buildNonDerivedLocked(name, blobID, track, attrs)
	if err != nil {
		return 0, err
	}
	id, err := db.stageLocked(obj, want)
	if err != nil {
		return 0, err
	}
	db.stagedSeq[id] = seq
	db.publishLocked(id)
	return id, nil
}

// AddDerived registers a derived media object. Inputs must already
// exist (making cycles impossible by construction) and must satisfy
// the operator's signature kinds.
func (db *DB) AddDerived(name, op string, inputs []core.ID, params []byte, attrs map[string]string) (core.ID, error) {
	db.commitGate.RLock()
	defer db.commitGate.RUnlock()
	db.mu.Lock()
	obj, err := db.buildDerivedLocked(name, op, inputs, params, attrs, nil)
	if err != nil {
		db.mu.Unlock()
		return 0, err
	}
	id, err := db.stageLocked(obj, 0)
	if err != nil {
		db.mu.Unlock()
		return 0, err
	}
	rec := &walOp{Kind: opDerived, ID: id, Name: name, Op: op, Inputs: inputs, Params: params, Attrs: attrs}
	t, err := db.enqueueStagedLocked(rec, id)
	db.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := db.commitObject(t, id); err != nil {
		return 0, err
	}
	return id, nil
}

// buildDerivedLocked validates and constructs a derived object. aux,
// when non-nil, resolves IDs beyond the current epoch — AddBatch uses
// it so later batch items can reference earlier ones before they are
// published. Assumes db.mu is held.
func (db *DB) buildDerivedLocked(name, op string, inputs []core.ID, params []byte, attrs map[string]string, aux map[core.ID]*core.Object) (*core.Object, error) {
	opImpl, err := derive.Lookup(op)
	if err != nil {
		return nil, err
	}
	lo, hi := opImpl.Arity()
	if len(inputs) < lo || (hi >= 0 && len(inputs) > hi) {
		return nil, fmt.Errorf("catalog: %s takes %d..%d inputs, got %d", op, lo, hi, len(inputs))
	}
	cur := db.cur.Load()
	for i, in := range inputs {
		src := cur.getByID(in)
		if src == nil {
			src = aux[in]
		}
		if src == nil {
			return nil, fmt.Errorf("%w: input %v", ErrNotFound, in)
		}
		if src.Class == core.ClassMultimedia {
			return nil, fmt.Errorf("%w: input %v is a multimedia object", ErrNotMedia, in)
		}
		if want := opImpl.ArgKind(i); src.Kind != want {
			return nil, fmt.Errorf("catalog: %s input %d is %v, want %v", op, i, src.Kind, want)
		}
	}
	return &core.Object{
		Name:       name,
		Class:      core.ClassDerived,
		Kind:       opImpl.ResultKind(),
		Attrs:      attrs,
		Derivation: &core.Derivation{Op: op, Inputs: append([]core.ID(nil), inputs...), Params: append([]byte(nil), params...)},
	}, nil
}

// addDerivedLocked stages and immediately publishes — the replay
// path. Assumes db.mu is held.
func (db *DB) addDerivedLocked(want core.ID, seq uint64, name, op string, inputs []core.ID, params []byte, attrs map[string]string) (core.ID, error) {
	obj, err := db.buildDerivedLocked(name, op, inputs, params, attrs, nil)
	if err != nil {
		return 0, err
	}
	id, err := db.stageLocked(obj, want)
	if err != nil {
		return 0, err
	}
	db.stagedSeq[id] = seq
	db.publishLocked(id)
	return id, nil
}

// AddMultimedia registers a multimedia object composing existing
// objects on the given time axis.
func (db *DB) AddMultimedia(name string, axis timebase.System, comps []core.ComponentRef, attrs map[string]string) (core.ID, error) {
	db.commitGate.RLock()
	defer db.commitGate.RUnlock()
	db.mu.Lock()
	obj, err := db.buildMultimediaLocked(name, axis, comps, attrs, nil)
	if err != nil {
		db.mu.Unlock()
		return 0, err
	}
	id, err := db.stageLocked(obj, 0)
	if err != nil {
		db.mu.Unlock()
		return 0, err
	}
	rec := &walOp{Kind: opMultimedia, ID: id, Name: name, Attrs: attrs, TimeNum: axis.Num, TimeDen: axis.Den}
	for _, c := range comps {
		rec.Comps = append(rec.Comps, savedComponent{Object: c.Object, Start: c.Start, Region: c.Region})
	}
	t, err := db.enqueueStagedLocked(rec, id)
	db.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := db.commitObject(t, id); err != nil {
		return 0, err
	}
	return id, nil
}

// buildMultimediaLocked validates and constructs a multimedia object;
// aux is as in buildDerivedLocked. Assumes db.mu is held.
func (db *DB) buildMultimediaLocked(name string, axis timebase.System, comps []core.ComponentRef, attrs map[string]string, aux map[core.ID]*core.Object) (*core.Object, error) {
	cur := db.cur.Load()
	for _, c := range comps {
		if cur.getByID(c.Object) == nil && aux[c.Object] == nil {
			return nil, fmt.Errorf("%w: component %v", ErrNotFound, c.Object)
		}
	}
	return &core.Object{
		Name:       name,
		Class:      core.ClassMultimedia,
		Attrs:      attrs,
		Multimedia: &core.MultimediaSpec{Time: axis, Components: append([]core.ComponentRef(nil), comps...)},
	}, nil
}

// addMultimediaLocked stages and immediately publishes — the replay
// path. Assumes db.mu is held.
func (db *DB) addMultimediaLocked(want core.ID, seq uint64, name string, axis timebase.System, comps []core.ComponentRef, attrs map[string]string) (core.ID, error) {
	obj, err := db.buildMultimediaLocked(name, axis, comps, attrs, nil)
	if err != nil {
		return 0, err
	}
	id, err := db.stageLocked(obj, want)
	if err != nil {
		return 0, err
	}
	db.stagedSeq[id] = seq
	db.publishLocked(id)
	return id, nil
}

// AddSync records a synchronization constraint on a multimedia object.
// The constraint is applied as a copy-on-write revision of the object
// in a fresh epoch, so concurrent readers of older epochs keep seeing
// the un-revised object; like before, the revision may be observable
// during the (rare) window where its journal record is still in
// flight, and a failed append publishes a reverting revision.
func (db *DB) AddSync(id core.ID, a, b int, maxSkew int64) error {
	db.commitGate.RLock()
	defer db.commitGate.RUnlock()
	sc := compose.SyncConstraint{A: a, B: b, MaxSkew: maxSkew}
	db.mu.Lock()
	// Validate and build the revision before reserving a log position:
	// a record enqueued for a doomed constraint would replay.
	rev, err := db.buildSyncLocked(id, a, b, maxSkew)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	rec := &walOp{Kind: opSync, ID: id, A: a, B: b, MaxSkew: maxSkew}
	t, err := db.enqueueLocked(rec)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	db.applySyncLocked(rev, rec.Seq)
	db.mu.Unlock()
	if t == nil {
		return nil
	}
	if err := db.waitRecord(t); err != nil {
		db.mu.Lock()
		db.rollbackSyncLocked(id, sc, rec.Seq)
		db.mu.Unlock()
		return err
	}
	return nil
}

// buildSyncLocked validates the constraint against the current epoch
// and returns the revised object without publishing it. Assumes db.mu
// is held.
func (db *DB) buildSyncLocked(id core.ID, a, b int, maxSkew int64) (*core.Object, error) {
	obj := db.cur.Load().getByID(id)
	if obj == nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	if obj.Class != core.ClassMultimedia {
		return nil, fmt.Errorf("%w: %v", ErrNotComposite, id)
	}
	if a < 0 || a >= len(obj.Multimedia.Components) || b < 0 || b >= len(obj.Multimedia.Components) {
		return nil, compose.ErrNoComponent
	}
	if maxSkew < 0 {
		return nil, compose.ErrBadSkew
	}
	rev := obj.Clone()
	rev.Multimedia.Syncs = append(rev.Multimedia.Syncs, compose.SyncConstraint{A: a, B: b, MaxSkew: maxSkew})
	return rev, nil
}

// applySyncLocked publishes a sync revision as a new epoch and stamps
// it into the object's version chain at seq. Assumes db.mu is held.
func (db *DB) applySyncLocked(rev *core.Object, seq uint64) {
	e := db.beginEditLocked()
	e.replace(rev)
	e.appendVersion(rev, seq)
	db.commitEditLocked(e)
	// The object was revised; the next incremental checkpoint must
	// re-capture it. A rolled-back sync leaves a spurious mark, which
	// only costs a redundant re-capture.
	db.markDirtyLocked(rev.Name, rev.ID)
}

// addSyncLocked validates, publishes, and version-stamps a constraint
// in one step — the replay path, where seq is the record's. Assumes
// db.mu is held.
func (db *DB) addSyncLocked(id core.ID, a, b int, maxSkew int64, seq uint64) error {
	rev, err := db.buildSyncLocked(id, a, b, maxSkew)
	if err != nil {
		return err
	}
	db.applySyncLocked(rev, seq)
	return nil
}

// rollbackSyncLocked rolls back a sync constraint whose journal record
// failed, by publishing a revision without it. It removes the last
// constraint equal to sc by value: concurrent AddSyncs may have
// appended after ours, so slicing off the tail element would drop
// someone else's acknowledged constraint. The failed revision's
// version entry at seq is dropped and any later retained versions are
// rewritten without the constraint. Assumes db.mu is held.
func (db *DB) rollbackSyncLocked(id core.ID, sc compose.SyncConstraint, seq uint64) {
	obj := db.cur.Load().getByID(id)
	if obj == nil || obj.Multimedia == nil {
		return
	}
	strip := func(o *core.Object) *core.Object {
		syncs := o.Multimedia.Syncs
		for i := len(syncs) - 1; i >= 0; i-- {
			if syncs[i] != sc {
				continue
			}
			rev := o.Clone()
			rev.Multimedia.Syncs = append(rev.Multimedia.Syncs[:i], rev.Multimedia.Syncs[i+1:]...)
			return rev
		}
		return o
	}
	rev := strip(obj)
	if rev == obj {
		return
	}
	e := db.beginEditLocked()
	e.replace(rev)
	e.rollbackSync(obj, seq, strip)
	db.commitEditLocked(e)
}

// stageLocked validates obj's name and ID against the current epoch
// plus in-flight reservations and stages it, invisible to readers.
// want == 0 allocates the next ID (live mutations); a non-zero want
// forces the recorded ID (journal replay and replication apply must
// reproduce recorded IDs exactly, and logs written before log order
// was pinned to seq order may hold reordered frames, so replay cannot
// rely on re-allocation reproducing them). Assumes db.mu is held.
func (db *DB) stageLocked(obj *core.Object, want core.ID) (core.ID, error) {
	cur := db.cur.Load()
	if _, dup := db.reservedNames[obj.Name]; dup {
		return 0, fmt.Errorf("%w: %q", ErrDupName, obj.Name)
	}
	if cur.shardFor(obj.Name).byName.has(obj.Name) {
		return 0, fmt.Errorf("%w: %q", ErrDupName, obj.Name)
	}
	id := want
	if id == 0 {
		id = db.nextID
	} else if _, taken := db.staged[id]; taken || cur.getByID(id) != nil {
		return 0, fmt.Errorf("catalog: object %v already exists", id)
	}
	obj.ID = id
	if err := obj.Validate(); err != nil {
		return 0, err
	}
	if id >= db.nextID {
		db.nextID = id + 1
	}
	db.staged[id] = obj
	db.reservedNames[obj.Name] = id
	return id, nil
}

// enqueueLocked assigns the next journal sequence number to rec,
// encodes it, and reserves its log position — all in one db.mu
// critical section, so the log's frame order provably equals sequence
// order. Replication depends on that equality: a follower resuming
// "from seq N" can trust that every frame after N's log position
// carries a seq > N, with no reordered stragglers behind it.
// Durability is NOT waited for here (the returned ticket's Wait runs
// outside db.mu, so concurrent mutators share group commits and
// readers never block on an fsync). With no journal attached the
// sequence number still advances — every committed mutation gets a
// distinct transaction-time stamp for its version chain — but nothing
// is encoded and the ticket is nil. Sequence numbers are never reused
// after a failure: a record that failed only at fsync may still be
// intact on disk, and a later acknowledged record under the same seq
// would lose to it on replay. Assumes db.mu is held.
func (db *DB) enqueueLocked(rec *walOp) (*wal.Ticket, error) {
	db.seq++
	rec.Seq = db.seq
	if db.wal == nil {
		return nil, nil
	}
	data, err := encodeOp(rec)
	if err != nil {
		return nil, err
	}
	return db.wal.Enqueue(data), nil
}

// enqueueStagedLocked reserves the staged object's log position and
// remembers its seq for the version stamp at publish. With no journal
// the object is published immediately — it is already committed — and
// the ticket is nil. Assumes db.mu is held.
func (db *DB) enqueueStagedLocked(rec *walOp, id core.ID) (*wal.Ticket, error) {
	t, err := db.enqueueLocked(rec)
	if err != nil {
		db.unstageLocked(id)
		return nil, err
	}
	db.stagedSeq[id] = rec.Seq
	if t == nil {
		db.publishLocked(id)
	}
	return t, nil
}

// commitObject waits for the staged object's journal record to become
// durable (nil t means no journal: nothing to do) and then publishes
// it, or rolls it back when the commit failed. Runs outside db.mu so
// concurrent mutators share group commits.
func (db *DB) commitObject(t *wal.Ticket, id core.ID) error {
	if t == nil {
		return nil
	}
	err := db.waitRecord(t)
	db.mu.Lock()
	if err != nil {
		db.unstageLocked(id)
	} else {
		db.publishLocked(id)
	}
	db.mu.Unlock()
	return err
}

// publishLocked moves staged objects into a new epoch after their
// journal records were acknowledged: one copy-on-write edit, one
// atomic view swap — so a multi-object batch lands as one epoch.
// Assumes db.mu is held.
func (db *DB) publishLocked(ids ...core.ID) {
	e := db.beginEditLocked()
	any := false
	for _, id := range ids {
		obj, ok := db.staged[id]
		if !ok {
			continue
		}
		seq, stamped := db.stagedSeq[id]
		if !stamped {
			seq = db.seq
		}
		delete(db.stagedSeq, id)
		delete(db.staged, id)
		delete(db.reservedNames, obj.Name)
		e.link(obj)
		e.appendVersion(obj, seq)
		db.markDirtyLocked(obj.Name, id)
		any = true
	}
	if any {
		db.commitEditLocked(e)
	}
}

// unstageLocked rolls a staged object back after a failed journal
// append: the name reservation is released and the ID is returned to
// the allocator when it is still the newest. Assumes db.mu is held.
func (db *DB) unstageLocked(id core.ID) {
	obj, ok := db.staged[id]
	if !ok {
		return
	}
	delete(db.staged, id)
	delete(db.stagedSeq, id)
	delete(db.reservedNames, obj.Name)
	if id == db.nextID-1 {
		db.nextID--
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
