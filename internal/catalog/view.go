package catalog

// Epoch-snapshot reads over a sharded catalog.
//
// The visible state of the catalog — objects, the name directory, the
// interpretation table, and every secondary index — lives in an
// immutable View, published with a single atomic pointer store. The
// object map and indexes are partitioned into N hash-by-name shards;
// each shard's state is built from persistent treaps (pmap.go,
// interval.go), so publishing a new epoch after a commit copies only
// the O(log n) spines the mutation touched in the shards it touched
// and shares everything else with the previous epoch.
//
// Readers pin a View with one atomic load and never take a lock: a
// pinned view is internally consistent forever — a paginated walk,
// a planner probe and the match step all see the same committed
// prefix, no matter how many writers commit concurrently. Writers
// still serialize on db.mu (the WAL requires that log order equals
// sequence order, which needs one global critical section per
// enqueue), but they no longer contend with readers at all.
//
// Recent views are retained in a bounded ring so HTTP clients can
// re-pin the epoch of their first page (epoch= parameter) and read
// mutually consistent pages. Any other epoch returns ErrEpochGone.

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/interp"
)

// DefaultShards is the number of hash-by-name shards the catalog
// state is partitioned into when no WithShards option is given.
const DefaultShards = 16

// DefaultEpochRetention is how many published epochs past the current
// one remain pinnable via ViewAt when no WithEpochRetention option is
// given. Retained epochs share structure with their neighbours, so
// the memory bound is O(retention x writes-per-epoch), not O(catalog).
const DefaultEpochRetention = 64

// ErrEpochGone reports a pinned epoch that has been retired from the
// retention ring (or never existed).
var ErrEpochGone = errors.New("catalog: epoch no longer retained")

// shardOf maps an object name to its shard (FNV-1a of the name).
func shardOf(name string, n int) int {
	return int(fnv64(name) % uint64(n))
}

// shardState is the immutable per-shard slice of one epoch: the
// objects whose names hash to the shard, the shard's name directory,
// and the shard's secondary indexes. Provenance edges live in the
// referrer's shard (the shard that owns the referencing object), so a
// shard's indexes are always exactly a function of the shard's own
// objects — which keeps VerifyIndexes shard-local.
type shardState struct {
	objects tmap[core.ID, *core.Object]
	byName  tmap[string, core.ID]
	ix      pIndexes
	// vers holds the transaction-time version chain of every object
	// whose name hashes to this shard, including tombstoned (deleted)
	// ones still within the retention window (versions.go).
	vers tmap[core.ID, *verChain]
	// chainsByName lists, per name, the IDs (ascending) of every chain
	// in vers carrying that name — more than one once a name has been
	// re-used across a delete. Maintained by setChain/dropChain; it is
	// how an as-of read finds a name's history without a live object.
	chainsByName tmap[string, []core.ID]
}

// View is one immutable epoch of the catalog. All methods are safe
// for unsynchronized concurrent use; none of them lock.
type View struct {
	db      *DB
	seq     uint64
	shards  []*shardState
	interps tmap[blob.ID, *interp.Interpretation]
	count   int
	// interpVers is the interpretation table's version-chain analog of
	// shardState.vers; verFloor is the oldest as_of seq this epoch can
	// answer (versions.go).
	interpVers tmap[blob.ID, *interpVerChain]
	verFloor   uint64
}

func newView(db *DB, nShards int) *View {
	v := &View{db: db, shards: make([]*shardState, nShards)}
	for i := range v.shards {
		v.shards[i] = &shardState{}
	}
	return v
}

// Epoch returns the journal seq the view holds every acknowledged
// record up to (see settleLocked); a batch takes several seqs.
func (v *View) Epoch() uint64 { return v.seq }

// Len returns the number of objects in the view.
func (v *View) Len() int { return v.count }

// Shards returns the number of hash shards the view is partitioned
// into.
func (v *View) Shards() int { return len(v.shards) }

func (v *View) shardFor(name string) *shardState {
	return v.shards[shardOf(name, len(v.shards))]
}

// getByID resolves an object by ID, probing each shard's object treap
// (there is no global id directory; with N shards that is N O(log n)
// lookups). Returns the shared immutable object or nil.
func (v *View) getByID(id core.ID) *core.Object {
	for _, sh := range v.shards {
		if o, ok := sh.objects.get(id); ok {
			return o
		}
	}
	return nil
}

// Get returns the object with the given ID. The returned object is
// shared with the view and must be treated as read-only; use
// (*core.Object).Clone for a mutable copy.
func (v *View) Get(id core.ID) (*core.Object, error) {
	if o := v.getByID(id); o != nil {
		return o, nil
	}
	return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
}

// Lookup returns the object with the given name. The returned object
// is shared with the view and must be treated as read-only.
func (v *View) Lookup(name string) (*core.Object, error) {
	sh := v.shardFor(name)
	if id, ok := sh.byName.get(name); ok {
		if o, ok := sh.objects.get(id); ok {
			return o, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
}

// Interpretation returns the interpretation of a BLOB as of this
// epoch.
func (v *View) Interpretation(id blob.ID) (*interp.Interpretation, error) {
	if it, ok := v.interps.get(id); ok {
		return it, nil
	}
	return nil, fmt.Errorf("%w: %v", ErrNoInterp, id)
}

// Select returns deep copies of the objects satisfying pred, ordered
// by ID. pred runs on the view's shared objects and must not retain
// or modify them.
func (v *View) Select(pred func(*core.Object) bool) []*core.Object {
	var out []*core.Object
	for _, sh := range v.shards {
		sh.objects.ascend(func(_ core.ID, o *core.Object) bool {
			if pred(o) {
				out = append(out, o.Clone())
			}
			return true
		})
	}
	sortByID(out)
	return out
}

// sortByID merges the per-shard ID-ordered runs into one global ID
// order. Shards partition by name hash, so a plain sort is simplest;
// the cost is bounded by the result size.
func sortByID(objs []*core.Object) {
	sort.Slice(objs, func(a, b int) bool { return objs[a].ID < objs[b].ID })
}

// CurrentView returns the most recently published epoch: one atomic
// load, no locks. The view is immutable and remains valid (and
// internally consistent) indefinitely.
func (db *DB) CurrentView() *View {
	return db.cur.Load()
}

// ViewAt returns the view pinned to the given epoch: the current one,
// or a retained recent one from the retention ring. Epochs that have
// been retired — or never published — return ErrEpochGone.
func (db *DB) ViewAt(epoch uint64) (*View, error) {
	cur := db.cur.Load()
	if epoch == cur.seq {
		return cur, nil
	}
	if epoch > cur.seq {
		return nil, fmt.Errorf("%w: %d (current is %d)", ErrEpochGone, epoch, cur.seq)
	}
	if v := db.ring.at(epoch); v != nil {
		return v, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrEpochGone, epoch)
}

// epochRing retains the last N published views so epoch-pinned reads
// can outlive a handful of concurrent commits. Only publication and
// explicit epoch= pins touch the lock; the default read path is the
// single atomic load in CurrentView.
type epochRing struct {
	mu   sync.RWMutex
	buf  []*View
	next int
}

func newEpochRing(n int) *epochRing {
	return &epochRing{buf: make([]*View, n)}
}

func (r *epochRing) add(v *View) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.mu.Unlock()
}

func (r *epochRing) at(epoch uint64) *View {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, v := range r.buf {
		if v != nil && v.seq == epoch {
			return v
		}
	}
	return nil
}

// viewEdit is a copy-on-write editing session over the current view.
// Writers build one under db.mu and publish it atomically with
// commitEditLocked, so a whole batch lands as one epoch. Shards are
// cloned lazily: an edit that touches 1 of N shards copies one
// shardState header and the treap spines of that shard only.
type viewEdit struct {
	db         *DB
	base       *View
	shards     []*shardState
	touched    []bool
	interps    tmap[blob.ID, *interp.Interpretation]
	count      int
	interpVers tmap[blob.ID, *interpVerChain]
	verFloor   uint64
}

// beginEditLocked starts an edit over the current view. Assumes db.mu
// is held (or the DB is not yet shared, during load).
func (db *DB) beginEditLocked() *viewEdit {
	base := db.cur.Load()
	e := &viewEdit{
		db:         db,
		base:       base,
		shards:     make([]*shardState, len(base.shards)),
		touched:    make([]bool, len(base.shards)),
		interps:    base.interps,
		count:      base.count,
		interpVers: base.interpVers,
		verFloor:   base.verFloor,
	}
	copy(e.shards, base.shards)
	return e
}

// shard returns shard i's mutable copy, cloning it on first touch.
func (e *viewEdit) shard(i int) *shardState {
	if !e.touched[i] {
		c := *e.shards[i]
		e.shards[i] = &c
		e.touched[i] = true
	}
	return e.shards[i]
}

func (e *viewEdit) shardIndexFor(name string) int {
	return shardOf(name, len(e.shards))
}

// lookupByID resolves an object by ID against the edit's working
// state.
func (e *viewEdit) lookupByID(id core.ID) *core.Object {
	for _, sh := range e.shards {
		if o, ok := sh.objects.get(id); ok {
			return o
		}
	}
	return nil
}

// link inserts obj into its shard and all of that shard's indexes.
// Component spans resolve against the edit's working state, so
// multi-object batches see their own earlier members.
func (e *viewEdit) link(obj *core.Object) {
	sh := e.shard(e.shardIndexFor(obj.Name))
	if _, existed := sh.objects.get(obj.ID); !existed {
		e.count++
	}
	sh.objects = sh.objects.set(obj.ID, obj)
	sh.byName = sh.byName.set(obj.Name, obj.ID)
	sh.ix = sh.ix.link(obj, e.lookupByID)
}

// unlink removes obj from its shard and indexes.
func (e *viewEdit) unlink(obj *core.Object) {
	si := e.shardIndexFor(obj.Name)
	sh := e.shard(si)
	if _, existed := sh.objects.get(obj.ID); existed {
		e.count--
	}
	sh.objects = sh.objects.del(obj.ID)
	sh.byName = sh.byName.del(obj.Name)
	sh.ix = sh.ix.unlink(obj)
}

// replace swaps an object for a same-ID, same-name, same-index-key
// revision (AddSync's copy-on-write update). No index maintenance:
// sync constraints are not indexed.
func (e *viewEdit) replace(obj *core.Object) {
	sh := e.shard(e.shardIndexFor(obj.Name))
	sh.objects = sh.objects.set(obj.ID, obj)
}

// insertRaw / removeRaw maintain objects and byName without touching
// the indexes — the bulk-load path (snapshot + checkpoint chain
// apply), which defers index construction to one relinkAllLocked pass
// because component spans may reference objects later in the stream.
func (e *viewEdit) insertRaw(obj *core.Object) {
	sh := e.shard(e.shardIndexFor(obj.Name))
	if _, existed := sh.objects.get(obj.ID); !existed {
		e.count++
	}
	sh.objects = sh.objects.set(obj.ID, obj)
	sh.byName = sh.byName.set(obj.Name, obj.ID)
}

func (e *viewEdit) removeRaw(obj *core.Object) {
	si := e.shardIndexFor(obj.Name)
	sh := e.shard(si)
	if _, existed := sh.objects.get(obj.ID); existed {
		e.count--
	}
	sh.objects = sh.objects.del(obj.ID)
	sh.byName = sh.byName.del(obj.Name)
}

func (e *viewEdit) setInterp(it *interp.Interpretation) {
	e.interps = e.interps.set(it.BlobID(), it)
}

func (e *viewEdit) delInterp(id blob.ID) {
	e.interps = e.interps.del(id)
}

// commitEditLocked publishes the edit as the view at seq: the previous
// view goes into the retention ring, the new one becomes current.
// Assumes db.mu is held (or the DB is not yet shared, during load).
func (db *DB) commitEditLocked(e *viewEdit, seq uint64) {
	prev := db.cur.Load()
	v := &View{
		db:         db,
		seq:        seq,
		shards:     e.shards,
		interps:    e.interps,
		count:      e.count,
		interpVers: e.interpVers,
		verFloor:   e.verFloor,
	}
	db.ring.add(prev)
	db.cur.Store(v)
}

// relinkAllLocked rebuilds every shard's indexes from its objects —
// the one-pass index construction after bulk load, when all objects
// (including forward-referenced components) are present. A live
// non-derived object without a live interpretation fails it with the
// store's error: applyStream skipped a registration whose BLOB is gone,
// and no tombstone followed. Assumes the DB is not yet shared.
func (db *DB) relinkAllLocked() error {
	cur := db.cur.Load()
	e := db.beginEditLocked()
	for i := range e.shards {
		sh := e.shard(i)
		ix := pIndexes{}
		var err error
		sh.objects.ascend(func(_ core.ID, o *core.Object) bool {
			if o.Class == core.ClassNonDerived && !cur.interps.has(o.Blob) {
				if _, err = db.openBlob(o.Blob); err == nil {
					err = fmt.Errorf("%w: %v", ErrNoInterp, o.Blob)
				}
				err = fmt.Errorf("catalog: object %v (%q): %w", o.ID, o.Name, err)
				return false
			}
			ix = ix.link(o, cur.getByID)
			return true
		})
		if err != nil {
			return err
		}
		sh.ix = ix
	}
	db.commitEditLocked(e, cur.seq)
	return nil
}
