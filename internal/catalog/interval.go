package catalog

import (
	"fmt"
	"math"

	"timedmedia/internal/core"
)

// Span is a half-open interval [Start, End) in seconds on the
// catalog's presentation timeline: for a timed media object, its own
// playing time starting at 0; for a multimedia object, the union of
// its components' placements on the composition's time axis (Def. 7).
// Objects without a timed extent (derived objects, still images,
// zero-duration streams) have no span.
type Span struct {
	Start, End float64
}

// Overlaps reports whether the span intersects the closed query
// window [lo, hi]. A point query "live at t" is the window [t, t]:
// with half-open spans an object is live at t iff Start <= t < End.
func (s Span) Overlaps(lo, hi float64) bool {
	return s.Start <= hi && s.End > lo
}

// spanIndex stores object spans in a persistent treap keyed by
// (Start, ID) with subtree-max End augmentation, so a window query
// visits only subtrees that can still overlap: O(log n + k) for k
// results. Like tmap, nodes are owned by the edit that made them: add
// and remove change in place the nodes their owner token made, copy
// the others on the split and merge spines, and share every untouched
// node with the old index, so every published epoch carries its own
// immutable interval index. Node priorities are hashed from the
// object ID, making the shape a pure function of the stored set —
// identical across live maintenance and rebuild-from-scratch, which
// VerifyIndexes exploits.
type spanIndex struct {
	root *spanNode
	byID tmap[core.ID, Span]
}

type spanNode struct {
	id          core.ID
	span        Span
	prio        uint64
	own         uint64 // token of the edit that made the node (see tnode)
	maxEnd      float64
	left, right *spanNode
}

// owned returns n itself when own made it, else a copy of n that own
// owns.
func (n *spanNode) owned(own uint64) *spanNode {
	if own != 0 && n.own == own {
		return n
	}
	c := *n
	c.own = own
	return &c
}

// spanPrio derives the treap priority from the object ID (splitmix64
// finalizer) — deterministic, no RNG state to persist.
func spanPrio(id core.ID) uint64 { return mix64(uint64(id)) }

// keyLess orders nodes by (Start, ID).
func (n *spanNode) keyLess(start float64, id core.ID) bool {
	return n.span.Start < start || (n.span.Start == start && n.id < id)
}

// pull recomputes the max-End augmentation from the children.
func (n *spanNode) pull() *spanNode {
	n.maxEnd = n.span.End
	if n.left != nil && n.left.maxEnd > n.maxEnd {
		n.maxEnd = n.left.maxEnd
	}
	if n.right != nil && n.right.maxEnd > n.maxEnd {
		n.maxEnd = n.right.maxEnd
	}
	return n
}

// spanSplit partitions n into keys < (start, id) and keys >=
// (start, id), owning every node on the split spine. Subtrees that
// land wholly on one side are shared, not copied.
func spanSplit(own uint64, n *spanNode, start float64, id core.ID) (l, r *spanNode) {
	if n == nil {
		return nil, nil
	}
	c := n.owned(own)
	if c.keyLess(start, id) {
		sl, sr := spanSplit(own, c.right, start, id)
		c.right = sl
		return c.pull(), sr
	}
	sl, sr := spanSplit(own, c.left, start, id)
	c.left = sr
	return sl, c.pull()
}

// spanMerge joins two treaps where every key in l precedes every key
// in r, owning the merge spine.
func spanMerge(own uint64, l, r *spanNode) *spanNode {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio >= r.prio:
		c := l.owned(own)
		c.right = spanMerge(own, c.right, r)
		return c.pull()
	default:
		c := r.owned(own)
		c.left = spanMerge(own, l, c.left)
		return c.pull()
	}
}

// add returns an index with the span for id inserted (or replaced),
// owning what it changes under own (see tmap.set).
func (ix spanIndex) add(own uint64, id core.ID, s Span) spanIndex {
	if old, ok := ix.byID.get(id); ok {
		ix = ix.removeKey(own, old.Start, id)
	}
	ix.byID = ix.byID.set(own, id, s)
	n := &spanNode{id: id, span: s, prio: spanPrio(id), own: own}
	n.pull()
	l, r := spanSplit(own, ix.root, s.Start, id)
	ix.root = spanMerge(own, spanMerge(own, l, n), r)
	return ix
}

// remove returns an index without id's span; unknown IDs return the
// index unchanged.
func (ix spanIndex) remove(own uint64, id core.ID) spanIndex {
	s, ok := ix.byID.get(id)
	if !ok {
		return ix
	}
	ix.byID = ix.byID.del(own, id)
	return ix.removeKey(own, s.Start, id)
}

// removeKey detaches the single node with key (start, id) by splitting
// out the one-key range [(start,id), (start,id+1)).
func (ix spanIndex) removeKey(own uint64, start float64, id core.ID) spanIndex {
	l, rest := spanSplit(own, ix.root, start, id)
	mid, r := spanSplit(own, rest, start, id+1)
	if mid != nil {
		mid = spanMerge(own, mid.left, mid.right)
	}
	ix.root = spanMerge(own, spanMerge(own, l, mid), r)
	return ix
}

// spanOf returns the indexed span of id.
func (ix spanIndex) spanOf(id core.ID) (Span, bool) {
	return ix.byID.get(id)
}

func (ix spanIndex) len() int { return ix.byID.len() }

// overlapping appends to out the IDs of every span overlapping the
// closed window [lo, hi], in (Start, ID) order. Subtrees whose maxEnd
// is <= lo cannot contain an overlap and are pruned; right subtrees
// are pruned once Start exceeds hi.
func (ix spanIndex) overlapping(lo, hi float64, out []core.ID) []core.ID {
	var walk func(n *spanNode)
	walk = func(n *spanNode) {
		if n == nil || n.maxEnd <= lo {
			return
		}
		walk(n.left)
		if n.span.Overlaps(lo, hi) {
			out = append(out, n.id)
		}
		if n.span.Start <= hi {
			walk(n.right)
		}
	}
	walk(ix.root)
	return out
}

// check verifies the treap against byID: key order, heap order,
// max-End augmentation, and exact agreement with the byID map. Used
// by VerifyIndexes.
func (ix spanIndex) check() error {
	seen := map[core.ID]Span{}
	prevStart := math.Inf(-1)
	var prevID core.ID
	var walk func(n *spanNode) (float64, error)
	walk = func(n *spanNode) (float64, error) {
		if n == nil {
			return math.Inf(-1), nil
		}
		if n.left != nil && n.left.prio > n.prio {
			return 0, fmt.Errorf("interval index: heap violation at %v", n.id)
		}
		if n.right != nil && n.right.prio > n.prio {
			return 0, fmt.Errorf("interval index: heap violation at %v", n.id)
		}
		maxL, err := walk(n.left)
		if err != nil {
			return 0, err
		}
		if n.span.Start < prevStart || (n.span.Start == prevStart && n.id <= prevID) {
			return 0, fmt.Errorf("interval index: key order violation at %v", n.id)
		}
		prevStart, prevID = n.span.Start, n.id
		if _, dup := seen[n.id]; dup {
			return 0, fmt.Errorf("interval index: duplicate node for %v", n.id)
		}
		seen[n.id] = n.span
		maxR, err := walk(n.right)
		if err != nil {
			return 0, err
		}
		want := math.Max(n.span.End, math.Max(maxL, maxR))
		if n.maxEnd != want {
			return 0, fmt.Errorf("interval index: maxEnd %v at %v, want %v", n.maxEnd, n.id, want)
		}
		return want, nil
	}
	if _, err := walk(ix.root); err != nil {
		return err
	}
	if len(seen) != ix.byID.len() {
		return fmt.Errorf("interval index: tree holds %d spans, byID holds %d", len(seen), ix.byID.len())
	}
	var err error
	ix.byID.ascend(func(id core.ID, s Span) bool {
		if got, ok := seen[id]; !ok || got != s {
			err = fmt.Errorf("interval index: byID span %v for %v not in tree (tree has %v)", s, id, got)
			return false
		}
		return true
	})
	return err
}
