package catalog

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/media"
)

// Secondary indexes over every retained version chain. Every index is
// persistent (owned-path treaps, see pmap.go) and lives inside the
// state of an immutable epoch View: linking an object produces a new
// pIndexes value sharing structure with the old one, so every
// published epoch carries exactly the index of its own chains. An
// in-flight commit is indexed only in its pending view, published once
// acknowledged, so the planner can only ever surface acknowledged
// mutations — the same guarantee Select gives — and a pinned epoch's
// plan, match and pagination all read the same committed prefix
// without taking any lock.
//
// An entry is made with the add and leaves with its chain (dropChain),
// not with the delete: an ID's indexed keys hold for its chain's whole
// life (a sync revision changes none of them), so the chain itself is
// the entry's lifetime, and the executor resolves each candidate
// through it at the view's seq. One index thus plans live and as-of
// queries alike; a tombstoned candidate is just one that resolves to
// nothing.
//
//	kind / class / attr  equality indexes
//	deps                 provenance adjacency: id → objects that list
//	                     it as a derivation input or composition
//	                     component
//	spans                interval index over presentation timelines
//	                     ("what is live at t / overlaps [t1,t2]")
//	blob                 readers: BLOB → the non-derived objects bound to
//	                     one of its tracks (what keeps a BLOB alive)
type idSet map[core.ID]struct{}

// pIndexes is the immutable index bundle of one epoch. Every posting
// list and ID key is a treap ascending by ID, so each candidate source
// yields objects in result order.
type pIndexes struct {
	kind  tmap[media.Kind, idset]
	class tmap[core.Class, idset]
	attr  tmap[string, tmap[string, idset]] // key → value → ids
	deps  tmap[core.ID, idset]
	spans spanIndex
	blob  tmap[blob.ID, idset]
}

// setAdd / setDrop maintain a posting list inside a persistent index
// family under owner token own (see pmap.go), pruning emptied sets so
// a rebuilt index and a long-lived one compare equal key for key.
func setAdd[K cmp.Ordered](own uint64, m tmap[K, idset], k K, id core.ID) tmap[K, idset] {
	set, _ := m.get(k)
	return m.set(own, k, set.set(own, id, struct{}{}))
}

func setDrop[K cmp.Ordered](own uint64, m tmap[K, idset], k K, id core.ID) tmap[K, idset] {
	set, ok := m.get(k)
	if !ok {
		return m
	}
	set = set.del(own, id)
	if set.len() == 0 {
		return m.del(own, k)
	}
	return m.set(own, k, set)
}

// directRefs returns the objects obj directly references: derivation
// inputs and composition components. Duplicates are fine — the sets
// absorb them symmetrically on link and unlink.
func directRefs(obj *core.Object) []core.ID {
	var refs []core.ID
	if obj.Derivation != nil {
		refs = append(refs, obj.Derivation.Inputs...)
	}
	if obj.Multimedia != nil {
		for _, c := range obj.Multimedia.Components {
			refs = append(refs, c.Object)
		}
	}
	return refs
}

// timelineSpan computes obj's presentation-timeline span (see Span).
// Timed media objects span [0, duration); multimedia objects span the
// union of their timed components' placements on the composition
// axis, resolving component objects through lookup. Components
// without a timed descriptor (derived objects, images, nested
// multimedia) contribute no extent. Objects with no positive extent
// have no span at all.
func timelineSpan(obj *core.Object, lookup func(core.ID) *core.Object) (Span, bool) {
	if obj.Desc != nil && obj.Desc.TimeSystem().Valid() {
		d := obj.Desc.TimeSystem().Seconds(obj.Desc.Duration())
		if d > 0 {
			return Span{Start: 0, End: d}, true
		}
		return Span{}, false
	}
	if obj.Multimedia == nil || !obj.Multimedia.Time.Valid() {
		return Span{}, false
	}
	axis := obj.Multimedia.Time
	var s Span
	found := false
	for _, c := range obj.Multimedia.Components {
		comp := lookup(c.Object)
		if comp == nil || comp.Desc == nil || !comp.Desc.TimeSystem().Valid() {
			continue
		}
		dur := comp.Desc.TimeSystem().Seconds(comp.Desc.Duration())
		if dur <= 0 {
			continue
		}
		start := axis.Seconds(c.Start)
		end := start + dur
		if !found {
			s, found = Span{Start: start, End: end}, true
			continue
		}
		if start < s.Start {
			s.Start = start
		}
		if end > s.End {
			s.End = end
		}
	}
	return s, found
}

// link returns the indexes with obj added to every family, owning
// what it changes under own. lookup resolves component objects for the
// timeline span and must see the same visibility the object itself is
// entering.
func (ix pIndexes) link(own uint64, obj *core.Object, lookup func(core.ID) *core.Object) pIndexes {
	ix.kind = setAdd(own, ix.kind, obj.Kind, obj.ID)
	ix.class = setAdd(own, ix.class, obj.Class, obj.ID)
	for k, v := range obj.Attrs {
		vals, _ := ix.attr.get(k)
		ix.attr = ix.attr.set(own, k, setAdd(own, vals, v, obj.ID))
	}
	for _, ref := range directRefs(obj) {
		ix.deps = setAdd(own, ix.deps, ref, obj.ID)
	}
	if s, ok := timelineSpan(obj, lookup); ok {
		ix.spans = ix.spans.add(own, obj.ID, s)
	}
	if obj.Class == core.ClassNonDerived {
		ix.blob = setAdd(own, ix.blob, obj.Blob, obj.ID)
	}
	return ix
}

// unlink returns the indexes with obj removed from every family,
// pruning emptied sets.
func (ix pIndexes) unlink(own uint64, obj *core.Object) pIndexes {
	ix.kind = setDrop(own, ix.kind, obj.Kind, obj.ID)
	ix.class = setDrop(own, ix.class, obj.Class, obj.ID)
	for k, v := range obj.Attrs {
		vals, ok := ix.attr.get(k)
		if !ok {
			continue
		}
		vals = setDrop(own, vals, v, obj.ID)
		if vals.len() == 0 {
			ix.attr = ix.attr.del(own, k)
		} else {
			ix.attr = ix.attr.set(own, k, vals)
		}
	}
	for _, ref := range directRefs(obj) {
		ix.deps = setDrop(own, ix.deps, ref, obj.ID)
	}
	ix.spans = ix.spans.remove(own, obj.ID)
	if obj.Class == core.ClassNonDerived {
		ix.blob = setDrop(own, ix.blob, obj.Blob, obj.ID)
	}
	return ix
}

// AttrEq is one attribute equality constraint of an IndexedQuery.
type AttrEq struct {
	Key, Value string
}

// IndexedQuery names the indexable constraints of a query. All listed
// constraints are enforced (AND semantics); the planner additionally
// uses the most selective one to source candidates. The zero value
// matches everything and plans as a full scan.
type IndexedQuery struct {
	// Kind / Class keep objects of that media kind / object class.
	Kind  *media.Kind
	Class *core.Class

	// Attrs keeps objects carrying every listed attribute equality.
	Attrs []AttrEq

	// Reach keeps objects whose derivation/composition ancestry
	// (transitively) includes each listed ID — DerivedFrom semantics,
	// answered from the provenance adjacency index.
	Reach []core.ID

	// Spans keeps objects whose presentation timeline overlaps each
	// listed window (Span.Overlaps; a point query is {t, t}). Objects
	// without a timed extent never match.
	Spans []Span
}

// Query plan labels, exported to telemetry as
// tbm_index_probes_total{index="..."} (planScan increments
// tbm_index_scan_fallback_total instead).
const (
	planKind       = "kind"
	planClass      = "class"
	planAttr       = "attr"
	planProvenance = "provenance"
	planInterval   = "interval"
	planScan       = "scan"
)

// indexPlans lists every candidate-sourcing plan, for eager metric
// registration.
var indexPlans = []string{planKind, planClass, planAttr, planProvenance, planInterval}

// descendants returns the transitive dependents of src — every object
// reachable from src by following the adjacency index's provenance
// edges forward, tombstoned referrers included; the executor keeps the
// ones live at the view's seq. src itself is excluded (an object is
// not derived from itself).
func (v *View) descendants(src core.ID) idSet {
	out := idSet{}
	queue := []core.ID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if set, ok := v.ix.deps.get(cur); ok {
			set.ascend(func(dep core.ID, _ struct{}) bool {
				if _, seen := out[dep]; !seen {
					out[dep] = struct{}{}
					queue = append(queue, dep)
				}
				return true
			})
		}
	}
	return out
}

// idWalk yields candidate IDs in ascending order until yield returns
// false.
type idWalk func(yield func(core.ID) bool)

func setWalk(set idset) idWalk {
	return func(yield func(core.ID) bool) {
		set.ascend(func(id core.ID, _ struct{}) bool { return yield(id) })
	}
}

func sliceWalk(ids []core.ID) idWalk {
	return func(yield func(core.ID) bool) {
		for _, id := range ids {
			if !yield(id) {
				return
			}
		}
	}
}

// planResult is the outcome of candidate sourcing: which family won,
// and its candidates in ID order.
type planResult struct {
	label string
	walk  idWalk
	reach []idSet // materialized Reach sets, for match
}

// plan picks the most selective candidate source for sel against this
// view. A scan falls back to every retained chain, tombstoned ones
// included.
func (v *View) plan(sel *IndexedQuery) planResult {
	res := planResult{label: planScan, walk: func(yield func(core.ID) bool) {
		v.vers.ascend(func(id core.ID, _ *verChain) bool { return yield(id) })
	}}
	bestSize := -1
	consider := func(label string, size int, walk idWalk) {
		if bestSize < 0 || size < bestSize {
			bestSize = size
			res.label, res.walk = label, walk
		}
	}
	// A posting list that does not exist is the empty candidate set.
	if sel.Kind != nil {
		set, _ := v.ix.kind.get(*sel.Kind)
		consider(planKind, set.len(), setWalk(set))
	}
	if sel.Class != nil {
		set, _ := v.ix.class.get(*sel.Class)
		consider(planClass, set.len(), setWalk(set))
	}
	for _, a := range sel.Attrs {
		vals, _ := v.ix.attr.get(a.Key)
		set, _ := vals.get(a.Value)
		consider(planAttr, set.len(), setWalk(set))
	}
	for _, src := range sel.Reach {
		set := v.descendants(src)
		res.reach = append(res.reach, set)
		ids := make([]core.ID, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		consider(planProvenance, len(ids), sliceWalk(ids))
	}
	if len(sel.Spans) > 0 {
		// The interval index's selectivity is only known by running the
		// window query; its O(log n + k) cost is bounded by its own
		// candidate count, so probing it to compare is safe. overlapping
		// returns (Start, ID) order; the walk wants IDs.
		ids := v.ix.spans.overlapping(sel.Spans[0].Start, sel.Spans[0].End, nil)
		slices.Sort(ids)
		consider(planInterval, len(ids), sliceWalk(ids))
	}
	return res
}

// match applies every sel constraint to o. reach must be the
// descendant sets plan materialized for sel.Reach.
func (v *View) match(sel *IndexedQuery, reach []idSet, o *core.Object) bool {
	if sel.Kind != nil && o.Kind != *sel.Kind {
		return false
	}
	if sel.Class != nil && o.Class != *sel.Class {
		return false
	}
	for _, a := range sel.Attrs {
		if o.Attrs[a.Key] != a.Value {
			return false
		}
	}
	for _, set := range reach {
		if _, ok := set[o.ID]; !ok {
			return false
		}
	}
	if len(sel.Spans) > 0 {
		sp, ok := v.ix.spans.spanOf(o.ID)
		if !ok {
			return false
		}
		for _, w := range sel.Spans {
			if !sp.Overlaps(w.Start, w.End) {
				return false
			}
		}
	}
	return true
}

// window is the one emitter behind every query executor: it receives
// the matches of an ID-ordered walk, counts them and clones the ones
// inside [offset, offset+limit). When the caller doesn't need the
// total, the window is full at offset+limit and the walk stops there —
// Count(limit) returns min(matches, limit).
type window struct {
	offset, limit    int
	needTotal, clone bool
	out              []*core.Object
	total            int
}

func newWindow(offset, limit int, needTotal, clone bool) *window {
	return &window{offset: max(offset, 0), limit: limit, needTotal: needTotal, clone: clone}
}

// full reports whether no further match can change the result.
func (w *window) full() bool {
	return !w.needTotal && w.limit >= 0 && w.total >= w.offset+w.limit
}

// add takes the next match in ID order and reports whether the walk
// should go on.
func (w *window) add(o *core.Object) bool {
	if w.full() {
		return false
	}
	w.total++
	if w.clone && w.total > w.offset && (w.limit < 0 || len(w.out) < w.limit) {
		w.out = append(w.out, o.Clone())
	}
	return !w.full()
}

// runIndexed is the one executor behind SelectIndexed / CountIndexed /
// SelectPage, live and as of a past seq alike: plan, walk candidates in
// ID order, resolve each through its chain at the view's seq, apply
// sel + pred, and hand the matches to the window. When the caller does
// not need the total (needTotal false) the walk stops as soon as the
// window is full, so matches past the cap are neither cloned nor
// visited. The entire run executes against this immutable view — no
// locks, no interaction with concurrent writers.
func (v *View) runIndexed(sel IndexedQuery, pred func(*core.Object) bool, offset, limit int, needTotal, clone bool) ([]*core.Object, int) {
	w := newWindow(offset, limit, needTotal, clone)
	planStart := time.Now()
	pr := v.plan(&sel)
	if t := v.db.tel.Load(); t != nil {
		t.queryPlan.Observe(time.Since(planStart))
		t.probes[pr.label].Inc()
	}
	pr.walk(func(id core.ID) bool {
		o := v.object(id, v.seq)
		if o == nil || !v.match(&sel, pr.reach, o) || (pred != nil && !pred(o)) {
			return true
		}
		return w.add(o)
	})
	return w.out, w.total
}

// SelectIndexed returns the objects matching sel and pred, ordered by
// ID and deep-copied like Select. limit < 0 means unlimited;
// otherwise at most limit objects are returned, and matches past the
// cap are never cloned. pred (which may be nil) runs on the view's
// shared objects and must not retain or modify them.
func (v *View) SelectIndexed(sel IndexedQuery, pred func(*core.Object) bool, limit int) []*core.Object {
	out, _ := v.runIndexed(sel, pred, 0, limit, false, true)
	return out
}

// CountIndexed counts the matches of sel and pred without cloning a
// single object. limit >= 0 caps the count (and the walk); limit < 0
// counts everything.
func (v *View) CountIndexed(sel IndexedQuery, pred func(*core.Object) bool, limit int) int {
	_, total := v.runIndexed(sel, pred, 0, limit, false, false)
	return total
}

// SelectPage returns the page [offset, offset+limit) of the full
// ID-ordered match list plus the total match count, both computed
// against this single epoch — concurrent publishes cannot skip or
// duplicate rows across pages pinned to the same view. limit < 0
// returns everything from offset on.
func (v *View) SelectPage(sel IndexedQuery, pred func(*core.Object) bool, offset, limit int) ([]*core.Object, int) {
	return v.runIndexed(sel, pred, offset, limit, true, true)
}

// IndexStats is a size snapshot of every index family. The indexes
// list every retained chain, so the counts include tombstoned chains
// retention still holds, not only live objects.
type IndexStats struct {
	Kinds           int `json:"kinds"`            // distinct kinds indexed
	Classes         int `json:"classes"`          // distinct classes indexed
	AttrKeys        int `json:"attr_keys"`        // distinct attribute keys
	AttrValues      int `json:"attr_values"`      // distinct (key, value) pairs
	ProvenanceEdges int `json:"provenance_edges"` // direct dependency edges
	Spans           int `json:"spans"`            // chains with a timeline span
}

// IndexStats reports the view's index sizes.
func (v *View) IndexStats() IndexStats {
	st := IndexStats{
		Kinds:    v.ix.kind.len(),
		Classes:  v.ix.class.len(),
		AttrKeys: v.ix.attr.len(),
		Spans:    v.ix.spans.len(),
	}
	v.ix.attr.ascend(func(_ string, vals tmap[string, idset]) bool { st.AttrValues += vals.len(); return true })
	v.ix.deps.ascend(func(_ core.ID, set idset) bool { st.ProvenanceEdges += set.len(); return true })
	return st
}

// IndexStats reports the current epoch's index sizes.
func (db *DB) IndexStats() IndexStats { return db.CurrentView().IndexStats() }

// indexChains builds the indexes from scratch over every retained
// chain, linking its newest version with components resolved at that
// version's own seq, where ErrInUse kept them live: a deleted
// composition keeps the span it was linked with. visit sees each
// version first, with whether its chain is live; an error it returns
// stops the build. It is the one rebuild behind Load's index pass and
// VerifyIndexes.
func (s *state) indexChains(visit func(o *core.Object, live bool) error) (pIndexes, error) {
	ix, own := pIndexes{}, newOwner()
	var err error
	s.vers.ascend(func(_ core.ID, c *verChain) bool {
		ent := c.newest()
		if err = visit(ent.val, c.live()); err != nil {
			return false
		}
		ix = ix.link(own, ent.val, func(id core.ID) *core.Object { return s.object(id, ent.seq) })
		return true
	})
	return ix, err
}

// VerifyIndexes rebuilds the indexes from scratch over the retained
// chains (indexChains) and diffs the rebuild against the view's
// incrementally maintained indexes, including the interval treap's
// structural invariants, and checks the live count against the chain
// tails. Any divergence — a stale entry leaked by a rollback or a
// dropped chain, a missing entry, an unpruned empty set — is returned
// as an error. The chains and the name directory are VerifyVersions'
// to check. Works on an immutable epoch: safe to run concurrently with
// writers.
func (v *View) VerifyIndexes() error {
	count := 0
	want, _ := v.indexChains(func(_ *core.Object, live bool) error {
		if live {
			count++
		}
		return nil
	})
	if err := diffSets("kind", setsToMap(v.ix.kind), setsToMap(want.kind)); err != nil {
		return err
	}
	if err := diffSets("class", setsToMap(v.ix.class), setsToMap(want.class)); err != nil {
		return err
	}
	if err := diffAttr(attrToMap(v.ix.attr), attrToMap(want.attr)); err != nil {
		return err
	}
	if err := diffSets("provenance", setsToMap(v.ix.deps), setsToMap(want.deps)); err != nil {
		return err
	}
	if err := diffSets("blob reader", setsToMap(v.ix.blob), setsToMap(want.blob)); err != nil {
		return err
	}
	if err := v.ix.spans.check(); err != nil {
		return err
	}
	if got, wantN := v.ix.spans.len(), want.spans.len(); got != wantN {
		return fmt.Errorf("catalog: interval index holds %d spans, rebuild holds %d", got, wantN)
	}
	var spanErr error
	want.spans.byID.ascend(func(id core.ID, ws Span) bool {
		if gs, ok := v.ix.spans.spanOf(id); !ok || gs != ws {
			spanErr = fmt.Errorf("catalog: interval index span for %v is %v, rebuild says %v", id, gs, ws)
			return false
		}
		return true
	})
	if spanErr != nil {
		return spanErr
	}
	if count != v.count {
		return fmt.Errorf("catalog: view count %d, chains hold %d live objects", v.count, count)
	}
	return nil
}

// VerifyIndexes verifies the current epoch; see (*View).VerifyIndexes.
func (db *DB) VerifyIndexes() error { return db.CurrentView().VerifyIndexes() }

// setsToMap / attrToMap flatten persistent index families into plain
// maps for the verification diff.
func setsToMap[K cmp.Ordered](m tmap[K, idset]) map[K]idSet {
	out := map[K]idSet{}
	m.ascend(func(k K, set idset) bool {
		s := idSet{}
		set.ascend(func(id core.ID, _ struct{}) bool { s[id] = struct{}{}; return true })
		out[k] = s
		return true
	})
	return out
}

func attrToMap(m tmap[string, tmap[string, idset]]) map[string]map[string]idSet {
	out := map[string]map[string]idSet{}
	m.ascend(func(k string, vals tmap[string, idset]) bool {
		out[k] = setsToMap(vals)
		return true
	})
	return out
}

func diffSets[K comparable](fam string, got, want map[K]idSet) error {
	for k, ws := range want {
		gs := got[k]
		for id := range ws {
			if _, ok := gs[id]; !ok {
				return fmt.Errorf("catalog: %s index missing %v under %v", fam, id, k)
			}
		}
		if len(gs) != len(ws) {
			return fmt.Errorf("catalog: %s index has %d entries under %v, rebuild has %d", fam, len(gs), k, len(ws))
		}
	}
	for k, gs := range got {
		if len(gs) == 0 {
			return fmt.Errorf("catalog: %s index retains empty set for %v", fam, k)
		}
		if _, ok := want[k]; !ok {
			return fmt.Errorf("catalog: %s index has stale key %v", fam, k)
		}
	}
	return nil
}

func diffAttr(got, want map[string]map[string]idSet) error {
	for k, wvals := range want {
		if err := diffSets("attr["+k+"]", got[k], wvals); err != nil {
			return err
		}
	}
	for k, gvals := range got {
		if len(gvals) == 0 {
			return fmt.Errorf("catalog: attr index retains empty key %q", k)
		}
		if _, ok := want[k]; !ok {
			return fmt.Errorf("catalog: attr index has stale key %q", k)
		}
	}
	return nil
}
