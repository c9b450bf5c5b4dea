package catalog

// Transaction-time version chains: the bitemporal half the paper's
// media-time model leaves out.
//
// Every committed mutation appends an immutable version — the object
// as published, stamped with the journal sequence number that
// committed it — to a per-object chain stored in the epoch's state.
// Deletes append a tombstone. Chains are persistent
// values like everything else in a View: appending copies the chain
// header and shares the entry storage, so every published epoch
// carries exactly the history its committed prefix implies, and as-of
// reads (View.AsOf) are as lock-free as any other epoch read.
//
// A chain answers "what did this object look like as of seq S" by
// resolving the newest entry with seq <= S. The catalog as of S is
// the union of those answers, and View.AsOf never builds it: the view
// it returns is the same state read at S, and each read resolves
// against the chains on demand — a name or ID lookup is one chain
// probe, a query one pass over the chains (runIndexed) — so every read
// route, and /v1/query?as_of=S with live_at, pagination and epoch
// pinning, reads the past through the same View methods.
//
// Retention: chains are bounded by WithVersionRetention. Pruning the
// oldest entry of a chain raises the catalog-wide version floor; any
// as_of below the floor is answered with ErrVersionGone (HTTP 410
// version_gone) rather than a silently incomplete catalog.

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/interp"
)

// DefaultVersionRetention bounds a single object's version chain when
// no WithVersionRetention option is given. Retained versions share
// structure with the live object graph, so the cost of a long chain is
// the mutated objects themselves, not copies of the catalog.
const DefaultVersionRetention = 256

// ErrVersionGone reports an as_of seq older than the version floor:
// retention has pruned at least one chain past it, so the catalog at
// that seq can no longer be reconstructed faithfully.
var ErrVersionGone = errors.New("catalog: version truncated by retention")

// entry is one committed version of a T. A nil val is a tombstone: the
// T was deleted (or its BLOB collected) at seq.
type entry[T any] struct {
	seq uint64
	val *T
}

// chain is the immutable version history of one T, entries in
// ascending seq order. Object chains carry the object's name so the
// name directory can drop a chain's listing without a live object;
// interpretation chains leave it empty.
type chain[T any] struct {
	name    string
	entries []entry[T]
}

// The two instantiations: per-object chains live in state.vers keyed
// by object ID, interpretation chains in state.interpVers keyed by
// blob ID.
type (
	verEntry       = entry[core.Object]
	verChain       = chain[core.Object]
	interpVerEntry = entry[interp.Interpretation]
	interpVerChain = chain[interp.Interpretation]
)

// at resolves the newest entry with entry.seq <= seq. ok is false when
// the chain has no entry that old (the T did not exist yet). The tail
// is tried first: most as-of reads ask about the recent past, where
// the newest version is the answer.
func (c *chain[T]) at(seq uint64) (e entry[T], ok bool) {
	n := len(c.entries)
	if n > 0 && c.entries[n-1].seq <= seq {
		return c.entries[n-1], true
	}
	i := sort.Search(n, func(i int) bool { return c.entries[i].seq > seq })
	if i == 0 {
		return entry[T]{}, false
	}
	return c.entries[i-1], true
}

// appended returns a chain with e added, keeping ascending seq order.
// An entry equal in seq to an existing one replaces it (idempotent
// re-apply during checkpoint-chain replay).
func (c *chain[T]) appended(e entry[T]) *chain[T] {
	i := sort.Search(len(c.entries), func(i int) bool { return c.entries[i].seq >= e.seq })
	n := &chain[T]{name: c.name, entries: make([]entry[T], 0, len(c.entries)+1)}
	n.entries = append(append(n.entries, c.entries[:i]...), e)
	if i < len(c.entries) && c.entries[i].seq == e.seq {
		i++
	}
	n.entries = append(n.entries, c.entries[i:]...)
	return n
}

// pruned drops the oldest entries beyond keep. floor is the seq of the
// new oldest entry when anything was dropped (0 otherwise): as-of
// reads below it can no longer see this chain faithfully.
func (c *chain[T]) pruned(keep int) (_ *chain[T], floor uint64) {
	if keep < 1 {
		keep = 1
	}
	if len(c.entries) <= keep {
		return c, 0
	}
	n := &chain[T]{name: c.name, entries: c.entries[len(c.entries)-keep:]}
	return n, n.entries[0].seq
}

// allTombstones reports a chain holding no resurrectable state — every
// retained entry is a delete. Such chains are dropped: retention has
// already raised the floor past anything they could answer.
func (c *chain[T]) allTombstones() bool {
	for _, e := range c.entries {
		if e.val != nil {
			return false
		}
	}
	return true
}

// tail returns the newest entry of a non-empty chain.
func (c *chain[T]) tail() entry[T] { return c.entries[len(c.entries)-1] }

// valAt resolves the T as of seq: nil when it did not exist yet or was
// already deleted.
func (c *chain[T]) valAt(seq uint64) *T {
	e, _ := c.at(seq)
	return e.val
}

// live reports whether the chain ends in a version, not a tombstone:
// the T exists now. A nil chain is not live.
func (c *chain[T]) live() bool { return c != nil && len(c.entries) > 0 && c.tail().val != nil }

// liveDelta is how replacing chain old with c (nil: none) moves a
// count of live Ts.
func liveDelta[T any](old, c *chain[T]) int {
	d := 0
	if old.live() {
		d--
	}
	if c.live() {
		d++
	}
	return d
}

// check verifies the invariants every stored chain holds: non-empty,
// at least one live entry, seqs strictly ascending.
func (c *chain[T]) check() error {
	if len(c.entries) == 0 {
		return errors.New("empty version chain")
	}
	if c.allTombstones() {
		return errors.New("all-tombstone chain retained")
	}
	for i := 1; i < len(c.entries); i++ {
		if prev, cur := c.entries[i-1].seq, c.entries[i].seq; cur <= prev {
			return fmt.Errorf("seq order violation: %d after %d", cur, prev)
		}
	}
	return nil
}

// --- viewEdit chain maintenance -----------------------------------

// raiseFloor records a retention prune: as-of reads below seq are no
// longer answerable.
func (e *viewEdit) raiseFloor(seq uint64) {
	if seq > e.verFloor {
		e.verFloor = seq
	}
}

// setChain stores (or, for all-tombstone chains, drops) a chain. It is
// the one place object chains enter the state, so it is also where the
// name → chain-IDs directory (state.chainsByName, what state.lookup
// probes) and the live count are kept: a chain is listed under its
// name from its first store to its drop, and counted while its tail is
// live.
func (e *viewEdit) setChain(id core.ID, c *verChain) {
	if c.allTombstones() {
		e.dropChain(id, c.name)
		return
	}
	old, _ := e.vers.get(id)
	e.count += liveDelta(old, c)
	e.vers = e.vers.set(e.own, id, c)
	ids, _ := e.chainsByName.get(c.name)
	if i, listed := slices.BinarySearch(ids, id); !listed {
		e.chainsByName = e.chainsByName.set(e.own, c.name, slices.Insert(slices.Clone(ids), i, id))
	}
}

// dropChain removes id's chain, its directory listing and its share of
// the live count.
func (e *viewEdit) dropChain(id core.ID, name string) {
	old, _ := e.vers.get(id)
	e.count += liveDelta(old, nil)
	e.vers = e.vers.del(e.own, id)
	ids, _ := e.chainsByName.get(name)
	i, listed := slices.BinarySearch(ids, id)
	switch {
	case !listed:
	case len(ids) == 1:
		e.chainsByName = e.chainsByName.del(e.own, name)
	default:
		e.chainsByName = e.chainsByName.set(e.own, name, slices.Delete(slices.Clone(ids), i, i+1))
	}
}

// extendChain appends ent to id's chain (starting one when absent),
// applies retention and stores the result.
func (e *viewEdit) extendChain(id core.ID, name string, ent verEntry) {
	c, ok := e.vers.get(id)
	if ok {
		c = c.appended(ent)
	} else {
		c = &verChain{name: name, entries: []verEntry{ent}}
	}
	c, floor := c.pruned(e.db.verRetention)
	e.raiseFloor(floor)
	e.setChain(id, c)
}

// appendVersion records obj as the committed state at seq.
func (e *viewEdit) appendVersion(obj *core.Object, seq uint64) {
	e.extendChain(obj.ID, obj.Name, verEntry{seq: seq, val: obj})
}

// appendTombstone records obj's deletion at seq.
func (e *viewEdit) appendTombstone(obj *core.Object, seq uint64) {
	e.extendChain(obj.ID, obj.Name, verEntry{seq: seq})
}

// setInterpChain stores id's interpretation chain, or drops it when c
// is nil, keeping the live interpretation count.
func (e *viewEdit) setInterpChain(id blob.ID, c *interpVerChain) {
	old, _ := e.interpVers.get(id)
	e.interpCount += liveDelta(old, c)
	if c == nil {
		e.interpVers = e.interpVers.del(e.own, id)
		return
	}
	e.interpVers = e.interpVers.set(e.own, id, c)
}

// appendInterpVersion / appendInterpTombstone maintain the
// interpretation chains.
func (e *viewEdit) appendInterpVersion(it *interp.Interpretation, seq uint64) {
	ent := interpVerEntry{seq: seq, val: it}
	c, ok := e.interpVers.get(it.BlobID())
	if ok {
		c = c.appended(ent)
	} else {
		c = &interpVerChain{entries: []interpVerEntry{ent}}
	}
	c, floor := c.pruned(e.db.verRetention)
	e.raiseFloor(floor)
	e.setInterpChain(it.BlobID(), c)
}

func (e *viewEdit) appendInterpTombstone(id blob.ID, seq uint64) {
	c, ok := e.interpVers.get(id)
	if !ok {
		// Nothing to tombstone over: history for this BLOB never existed
		// or did not survive (re)load. Raise the floor so as-of reads
		// cannot silently miss it.
		e.raiseFloor(seq)
		return
	}
	c, floor := c.appended(interpVerEntry{seq: seq}).pruned(e.db.verRetention)
	e.raiseFloor(floor)
	if c.allTombstones() {
		e.raiseFloor(c.tail().seq)
		c = nil
	}
	e.setInterpChain(id, c)
}

// --- invariants ----------------------------------------------------

// VersionFloor returns the oldest as_of seq this view can answer.
func (v *View) VersionFloor() uint64 { return v.verFloor }

// VerifyVersions checks the view's version chains: entries strictly
// ascending in seq, chains non-empty, each
// holding versions of its own object only, the name directory listing
// exactly the stored chains with at most one live chain per name, and
// the live counts equal to the live chain tails, for objects and
// interpretations alike. Like VerifyIndexes it runs on an immutable
// epoch, safe concurrently with writers.
func (v *View) VerifyVersions() error {
	live := 0
	var err error
	v.vers.ascend(func(id core.ID, c *verChain) bool {
		if cerr := c.check(); cerr != nil {
			err = fmt.Errorf("catalog: chain %v: %w", id, cerr)
			return false
		}
		for _, ent := range c.entries {
			if ent.val != nil && (ent.val.ID != id || ent.val.Name != c.name) {
				err = fmt.Errorf("catalog: chain %v holds version of %v (%q)", id, ent.val.ID, ent.val.Name)
				return false
			}
		}
		if c.live() {
			live++
		}
		if ids, _ := v.chainsByName.get(c.name); !slices.Contains(ids, id) {
			err = fmt.Errorf("catalog: chain %v not listed under %q in the name directory", id, c.name)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	// Every chain is listed (checked above); nothing else may be, and a
	// name has one live object at most.
	v.chainsByName.ascend(func(name string, ids []core.ID) bool {
		lives := 0
		for i, id := range ids {
			c, ok := v.vers.get(id)
			if !ok || c.name != name || (i > 0 && ids[i-1] >= id) {
				err = fmt.Errorf("catalog: name directory lists %v under %q: no such chain, or listed twice", id, name)
				return false
			}
			if c.live() {
				lives++
			}
		}
		if lives > 1 {
			err = fmt.Errorf("catalog: %d live chains under %q", lives, name)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if live != v.count {
		return fmt.Errorf("catalog: %d live chain tails, view holds %d objects", live, v.count)
	}
	live = 0
	v.interpVers.ascend(func(id blob.ID, c *interpVerChain) bool {
		if cerr := c.check(); cerr != nil {
			err = fmt.Errorf("catalog: interp chain %v: %w", id, cerr)
			return false
		}
		if c.live() {
			live++
		}
		return true
	})
	if err != nil {
		return err
	}
	if live != v.interpCount {
		return fmt.Errorf("catalog: %d live interp chain tails, view holds %d interpretations", live, v.interpCount)
	}
	return nil
}
