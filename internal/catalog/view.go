package catalog

// Epoch-snapshot reads over one catalog state.
//
// The visible state of the catalog lives in an immutable View,
// published with a single atomic pointer store, and there is one copy
// of it: the version chains of objects and interpretations
// (versions.go), the name directory over the object chains, and every
// secondary index. A live object is the non-tombstone tail of its
// chain, so a live read is an as-of read at seqNow and goes through
// the same point-read helpers a read of the past does (state.object,
// state.lookup, interpAt). The state is built from persistent treaps
// (pmap.go, interval.go), so publishing a new epoch after a commit
// copies only the O(log n) spines the commit touched, once each however
// many records touched them, and shares everything else with the
// previous epoch. Every ID-keyed treap walks
// in ID order, so a query's candidate walk is already in result order.
//
// Readers pin a View with one atomic load and never take a lock: a
// pinned view is internally consistent forever — a paginated walk,
// a planner probe and the match step all see the same committed
// prefix, no matter how many writers commit concurrently. Writers
// still serialize on db.mu (the WAL requires that log order equals
// sequence order, which needs one global critical section per
// enqueue), but they no longer contend with readers at all.
//
// A View is also the one read type for the past: it knows the seq its
// reads resolve at. A published view reads at seqNow and plans queries
// over its indexes; View.AsOf and DB.ViewAt return a copy of a state
// that reads at an older seq, where every point read resolves the
// chains at that seq and a query walks them (runIndexed). So an HTTP
// client can re-pin the epoch of its first page (epoch=) for as long as
// version retention keeps the chains that far back.

import (
	"errors"
	"fmt"
	"math"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/interp"
)

// ErrEpochGone reports a pinned epoch past the newest published one.
var ErrEpochGone = errors.New("catalog: epoch not published")

// seqNow is the seq a live read resolves chains at: past every commit,
// so each chain answers with its tail.
const seqNow = math.MaxUint64

// state is the catalog content of one epoch, shared by a View and the
// viewEdit a commit builds it from.
type state struct {
	// vers holds the transaction-time version chain of every object,
	// including tombstoned (deleted) ones still within the retention
	// window (versions.go).
	vers tmap[core.ID, *verChain]
	// chainsByName lists, per name, the IDs (ascending) of every chain
	// in vers carrying that name — more than one once a name has been
	// re-used across a delete, of which at most one is live at any seq.
	// Maintained by setChain/dropChain.
	chainsByName tmap[string, []core.ID]
	// ix holds the secondary indexes over the live objects (index.go).
	ix pIndexes
	// count and interpCount are the live objects and interpretations:
	// the chains whose tail is not a tombstone (setChain, setInterpChain).
	count, interpCount int
	// interpVers is the interpretation table's analog of vers; verFloor
	// is the oldest as_of seq this epoch can answer (versions.go).
	interpVers tmap[blob.ID, *interpVerChain]
	verFloor   uint64
}

// object resolves id's chain at seq: nil when there is no such chain,
// or the object did not exist yet or was already deleted at seq.
func (s *state) object(id core.ID, seq uint64) *core.Object {
	if c, ok := s.vers.get(id); ok {
		return c.valAt(seq)
	}
	return nil
}

// lookup resolves name at seq. The newest chain listed under the name
// is tried first: it is the only one that can be live at seqNow.
func (s *state) lookup(name string, seq uint64) *core.Object {
	ids, _ := s.chainsByName.get(name)
	for i := len(ids) - 1; i >= 0; i-- {
		if o := s.object(ids[i], seq); o != nil {
			return o
		}
	}
	return nil
}

// getByID and lookupName resolve a live object — the shared immutable
// object, or nil — in a view's epoch or an edit's working state.
func (s *state) getByID(id core.ID) *core.Object     { return s.object(id, seqNow) }
func (s *state) lookupName(name string) *core.Object { return s.lookup(name, seqNow) }

// eachAt visits the objects live at seq in ascending ID order until
// visit returns false.
func (s *state) eachAt(seq uint64, visit func(*core.Object) bool) {
	s.vers.ascend(func(_ core.ID, c *verChain) bool {
		if o := c.valAt(seq); o != nil {
			return visit(o)
		}
		return true
	})
}

// interpAt resolves a BLOB's interpretation at seq: nil when it was
// not registered yet or already collected.
func interpAt(vers tmap[blob.ID, *interpVerChain], id blob.ID, seq uint64) *interp.Interpretation {
	if c, ok := vers.get(id); ok {
		return c.valAt(seq)
	}
	return nil
}

// View is one immutable epoch of the catalog, read at a seq: seqNow
// for a published view, an older seq for one AsOf or ViewAt made. All
// methods are safe for unsynchronized concurrent use; none of them
// lock.
type View struct {
	db  *DB
	seq uint64
	at  uint64
	state
}

// Epoch returns the journal seq the view holds every acknowledged
// record up to (see settleLocked); a batch takes several seqs. A view
// ViewAt(N) made reports N; AsOf keeps the epoch it narrowed.
func (v *View) Epoch() uint64 { return v.seq }

// past reports whether the view reads at an older seq than its
// state's: its indexes describe the newest state, not the one it
// reads, so queries walk the chains instead.
func (v *View) past() bool { return v.at != seqNow }

// Len returns the number of live objects in the view.
func (v *View) Len() int {
	if !v.past() {
		return v.count
	}
	n := 0
	v.eachAt(v.at, func(*core.Object) bool { n++; return true })
	return n
}

// VersionChains returns the number of object version chains the view
// retains, live or tombstoned: VersionChains - Len is the deleted
// history retention still holds.
func (v *View) VersionChains() int { return v.vers.len() }

// Get returns the object with the given ID. The returned object is
// shared with the view and must be treated as read-only; use
// (*core.Object).Clone for a mutable copy.
func (v *View) Get(id core.ID) (*core.Object, error) {
	if o := v.object(id, v.at); o != nil {
		return o, nil
	}
	return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
}

// Lookup returns the object with the given name. The returned object
// is shared with the view and must be treated as read-only.
func (v *View) Lookup(name string) (*core.Object, error) {
	if o := v.lookup(name, v.at); o != nil {
		return o, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
}

// Interpretation returns the interpretation of a BLOB as of the view's
// seq.
func (v *View) Interpretation(id blob.ID) (*interp.Interpretation, error) {
	if it := interpAt(v.interpVers, id, v.at); it != nil {
		return it, nil
	}
	return nil, fmt.Errorf("%w: %v", ErrNoInterp, id)
}

// Payloads is Interpretation for reading a BLOB's element bytes. At a
// past seq, a BLOB collected since has no bytes to read: its file goes
// with the checkpoint that covers the collection, so Payloads answers
// ErrVersionGone whether or not that checkpoint has run yet.
func (v *View) Payloads(id blob.ID) (*interp.Interpretation, error) {
	if err := v.collected(id); err != nil {
		return nil, err
	}
	return v.Interpretation(id)
}

// collected is Payloads' refusal: ErrVersionGone when the view reads
// the past and id's interpretation chain ends in a collection.
func (v *View) collected(id blob.ID) error {
	if !v.past() {
		return nil
	}
	if c, ok := v.interpVers.get(id); ok && !c.live() {
		return fmt.Errorf("%w: BLOB %v was collected at seq %d", ErrVersionGone, id, c.tail().seq)
	}
	return nil
}

// Select returns deep copies of the objects satisfying pred, ordered
// by ID. pred runs on the view's shared objects and must not retain
// or modify them.
func (v *View) Select(pred func(*core.Object) bool) []*core.Object {
	var out []*core.Object
	v.eachAt(v.at, func(o *core.Object) bool {
		if pred(o) {
			out = append(out, o.Clone())
		}
		return true
	})
	return out
}

// CurrentView returns the most recently published epoch: one atomic
// load, no locks. The view is immutable and remains valid (and
// internally consistent) indefinitely.
func (db *DB) CurrentView() *View {
	return db.cur.Load()
}

// ViewAt returns the view of the given epoch: the current view itself,
// or the current state read at that older seq. A seq inside a batch,
// which no published view was at, reads the batch's prefix. An epoch
// past the current one returns ErrEpochGone, one below the version
// floor ErrVersionGone.
func (db *DB) ViewAt(epoch uint64) (*View, error) {
	cur := db.cur.Load()
	if epoch > cur.seq {
		return nil, fmt.Errorf("%w: %d (current is %d)", ErrEpochGone, epoch, cur.seq)
	}
	v, err := cur.AsOf(epoch)
	if err != nil || v == cur {
		return v, err
	}
	v.seq = epoch
	return v, nil
}

// AsOf narrows the view to transaction-time seq: a copy that reads at
// seq and keeps the view's Epoch. seq below the version floor
// (retention has pruned history past it) returns ErrVersionGone; seq at
// or beyond the view's own returns the view itself.
func (v *View) AsOf(seq uint64) (*View, error) {
	if seq < v.verFloor {
		if t := v.db.tel.Load(); t != nil {
			t.versionGone.Inc()
		}
		return nil, fmt.Errorf("%w: as_of %d precedes version floor %d", ErrVersionGone, seq, v.verFloor)
	}
	if seq >= min(v.seq, v.at) {
		return v, nil
	}
	a := *v
	a.at = seq
	return &a, nil
}

// viewEdit is a copy-on-write editing session over a view. A commit
// builds one under db.mu over the newest pending view and freezes it
// into the view it publishes (see commitLocked), so a whole batch lands
// as one epoch. The edit starts as a copy of the view's state and holds
// an owner token (see pmap.go): a mutation copies the treap nodes on
// its path that the edit did not make, changes the ones it made in
// place, and shares the rest. A 4-object batch or a snapshot load of n
// records thus copies each path once, not once per record. view
// retires the token, so no node a pending or published view can reach
// ever changes again.
type viewEdit struct {
	db  *DB
	own uint64
	state
}

// beginEditLocked starts an edit over the newest pending view: the last
// queued commit's, or the published one when none is queued. The edit
// takes db.editOwner, issuing one when the last was retired: an edit
// dropped without a view (a record failed validation) leaves its token
// to the next one, as no view reaches the nodes it made. Assumes db.mu
// is held (or the DB is not yet shared, during load).
func (db *DB) beginEditLocked() *viewEdit {
	base := db.cur.Load()
	if n := len(db.commits); n > 0 {
		base = db.commits[n-1].view
	}
	if db.editOwner == 0 {
		db.editOwner = newOwner()
	}
	return &viewEdit{db: db, own: db.editOwner, state: base.state}
}

// link adds obj to the indexes. Component spans resolve against the
// edit's working state, so multi-object batches see their own earlier
// members.
func (e *viewEdit) link(obj *core.Object) { e.ix = e.ix.link(e.own, obj, e.getByID) }

// unlink removes obj from the indexes.
func (e *viewEdit) unlink(obj *core.Object) { e.ix = e.ix.unlink(e.own, obj) }

// view freezes the edit as the view at seq and retires its token, so
// no later edit changes a node the view reaches.
func (e *viewEdit) view(seq uint64) *View {
	e.db.editOwner, e.own = 0, 0
	return &View{db: e.db, seq: seq, at: seqNow, state: e.state}
}

// commitEditLocked publishes the edit as the view at seq. Load uses
// it; commits publish through settleLocked. Assumes the DB is not yet
// shared.
func (db *DB) commitEditLocked(e *viewEdit, seq uint64) {
	db.publishLocked(&pendingCommit{view: e.view(seq)})
}

// relinkAllLocked rebuilds the indexes from the live chain tails — the
// one-pass index construction after bulk load, when all objects
// (including forward-referenced components) are present. A live
// non-derived object without a live interpretation fails it with the
// store's error: applyStream skipped a registration whose BLOB is
// gone, and no tombstone followed. Assumes the DB is not yet shared.
func (db *DB) relinkAllLocked() error {
	cur := db.cur.Load()
	ix, own := pIndexes{}, newOwner()
	var err error
	cur.eachAt(seqNow, func(o *core.Object) bool {
		if o.Class == core.ClassNonDerived && interpAt(cur.interpVers, o.Blob, seqNow) == nil {
			if _, err = db.openBlob(o.Blob); err == nil {
				err = fmt.Errorf("%w: %v", ErrNoInterp, o.Blob)
			}
			err = fmt.Errorf("catalog: object %v (%q): %w", o.ID, o.Name, err)
			return false
		}
		ix = ix.link(own, o, cur.getByID)
		return true
	})
	if err != nil {
		return err
	}
	e := db.beginEditLocked()
	e.ix = ix
	db.commitEditLocked(e, cur.seq)
	return nil
}
