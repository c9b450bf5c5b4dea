package catalog

// Persistent ordered map: a treap with deterministic priorities and
// size augmentation, edited by path ownership. This is the building
// block for the epoch-snapshot catalog: a mutation copies the O(log n)
// spine it touches and shares the rest of the tree with the previous
// epoch, so publishing a new immutable view after a commit costs
// log-time and a handful of allocations instead of a full map clone.
//
// Every node records the owner token of the edit that made it (see
// newOwner). A mutation under token own changes a node in place when
// own made it, and copies it (stamping the copy with own) otherwise:
// an edit that touches one path k times copies it once, not k times.
// An edit's token is retired before anything reads the edit's result
// (viewEdit.view), so a node any view can reach never changes again.
// Token 0 owns nothing: a mutation under it copies every node it
// touches, the plain persistent update.
//
// Priorities are a hash of the key (prioOf), recomputed where the
// treap needs them rather than stored, so the owner token takes the
// word a stored priority would. The shape of a treap is a pure
// function of its key set — two independently built maps over the
// same keys are structurally identical. VerifyIndexes leans on a
// weaker form of this (set equality), but determinism also keeps
// replay and rebuild paths reproducible under -race and in crash tests.
//
// The zero value is an empty, ready-to-use map. All methods are value
// receivers returning new maps; a tmap is safe to read from any number
// of goroutines once published.

import (
	"cmp"
	"sync/atomic"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/media"
)

type tnode[K cmp.Ordered, V any] struct {
	k    K
	v    V
	own  uint64 // token of the edit that made the node; 0: none
	size int
	l, r *tnode[K, V]
}

// tmap is a persistent ordered map from K to V.
type tmap[K cmp.Ordered, V any] struct {
	root *tnode[K, V]
}

// lastOwner is the most recently issued owner token.
var lastOwner atomic.Uint64

// newOwner returns an owner token no edit has held before.
func newOwner() uint64 { return lastOwner.Add(1) }

func tsize[K cmp.Ordered, V any](n *tnode[K, V]) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *tnode[K, V]) pull() {
	n.size = tsize(n.l) + tsize(n.r) + 1
}

// owned returns n itself when own made it, else a copy of n that own
// owns.
func (n *tnode[K, V]) owned(own uint64) *tnode[K, V] {
	if own != 0 && n.own == own {
		return n
	}
	c := *n
	c.own = own
	return &c
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed
// bijection used to derive treap priorities from keys.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// prioOf derives the deterministic priority for a key. The type switch
// covers every key type the catalog instantiates; adding a new key
// type without a case is a programming error caught at first insert.
func prioOf[K cmp.Ordered](k K) uint64 {
	switch x := any(k).(type) {
	case core.ID:
		return mix64(uint64(x))
	case blob.ID:
		return mix64(uint64(x))
	case media.Kind:
		return mix64(uint64(x))
	case core.Class:
		return mix64(uint64(x))
	case string:
		return mix64(fnv64(x))
	case uint64:
		return mix64(x)
	case int:
		return mix64(uint64(x))
	default:
		panic("catalog: tmap key type lacks a priority hash")
	}
}

func (m tmap[K, V]) len() int { return tsize(m.root) }

func (m tmap[K, V]) get(k K) (V, bool) {
	n := m.root
	for n != nil {
		switch {
		case k < n.k:
			n = n.l
		case k > n.k:
			n = n.r
		default:
			return n.v, true
		}
	}
	var zero V
	return zero, false
}

func (m tmap[K, V]) has(k K) bool {
	_, ok := m.get(k)
	return ok
}

// set returns a map with k bound to v: the nodes on k's path that own
// made change in place, the others are copied, and everything else is
// shared with m.
func (m tmap[K, V]) set(own uint64, k K, v V) tmap[K, V] {
	return tmap[K, V]{root: tset(own, m.root, k, v, prioOf(k))}
}

// tset inserts or rebinds k below n; prio is prioOf(k). Only the node
// holding k can rise above its parent, and only when it is new, so a
// rotation is tested only where the child's root holds k.
func tset[K cmp.Ordered, V any](own uint64, n *tnode[K, V], k K, v V, prio uint64) *tnode[K, V] {
	if n == nil {
		return &tnode[K, V]{k: k, v: v, own: own, size: 1}
	}
	c := n.owned(own)
	switch {
	case k < c.k:
		c.l = tset(own, c.l, k, v, prio)
		c.pull()
		if c.l.k == k && prio > prioOf(c.k) {
			c = rotRight(c)
		}
	case k > c.k:
		c.r = tset(own, c.r, k, v, prio)
		c.pull()
		if c.r.k == k && prio > prioOf(c.k) {
			c = rotLeft(c)
		}
	default:
		c.v = v
	}
	return c
}

// rotRight and rotLeft operate on owned nodes only: the parent is the
// node tset owns, and the promoted child is the node tset just
// returned, which it owns too, so in-place pointer surgery never
// mutates a published epoch.
func rotRight[K cmp.Ordered, V any](n *tnode[K, V]) *tnode[K, V] {
	l := n.l
	n.l = l.r
	n.pull()
	l.r = n
	l.pull()
	return l
}

func rotLeft[K cmp.Ordered, V any](n *tnode[K, V]) *tnode[K, V] {
	r := n.r
	n.r = r.l
	n.pull()
	r.l = n
	r.pull()
	return r
}

// del returns a map without k, changing in place the nodes own made
// on k's path and sharing the rest with m. Deleting an absent key
// returns m unchanged.
func (m tmap[K, V]) del(own uint64, k K) tmap[K, V] {
	root, ok := tdel(own, m.root, k)
	if !ok {
		return m
	}
	return tmap[K, V]{root: root}
}

func tdel[K cmp.Ordered, V any](own uint64, n *tnode[K, V], k K) (*tnode[K, V], bool) {
	if n == nil {
		return nil, false
	}
	switch {
	case k < n.k:
		nl, ok := tdel(own, n.l, k)
		if !ok {
			return n, false
		}
		c := n.owned(own)
		c.l = nl
		c.pull()
		return c, true
	case k > n.k:
		nr, ok := tdel(own, n.r, k)
		if !ok {
			return n, false
		}
		c := n.owned(own)
		c.r = nr
		c.pull()
		return c, true
	default:
		return tmerge(own, n.l, n.r), true
	}
}

// tmerge joins two treaps where every key in l precedes every key in
// r. Nodes returned untouched (the nil cases) stay shared; every node
// on the merge spine is owned: changed in place when own made it,
// copied otherwise.
func tmerge[K cmp.Ordered, V any](own uint64, l, r *tnode[K, V]) *tnode[K, V] {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	if prioOf(l.k) >= prioOf(r.k) {
		c := l.owned(own)
		c.r = tmerge(own, c.r, r)
		c.pull()
		return c
	}
	c := r.owned(own)
	c.l = tmerge(own, l, c.l)
	c.pull()
	return c
}

// ascend walks keys in ascending order, stopping early when f returns
// false. Reports whether the walk ran to completion.
func (m tmap[K, V]) ascend(f func(K, V) bool) bool {
	return tascend(m.root, f)
}

func tascend[K cmp.Ordered, V any](n *tnode[K, V], f func(K, V) bool) bool {
	if n == nil {
		return true
	}
	if !tascend(n.l, f) {
		return false
	}
	if !f(n.k, n.v) {
		return false
	}
	return tascend(n.r, f)
}

// diff calls f, in ascending key order, for every key a and b bind
// differently, with V's zero value for a side that lacks it (the
// catalog's maps hold pointers, never nil). Shared subtrees are skipped
// by pointer: an edit shares every subtree it did not touch,
// so maps k edits apart cost O(k log n) to diff. Ascending order keeps
// a caller that inserts the keys into another treap on its right spine.
func diff[K cmp.Ordered, V comparable](a, b tmap[K, V], f func(k K, av, bv V)) {
	tdiff(a.root, b.root, nil, nil, f)
}

// tdiff is diff over the keys strictly between lo and hi (nil: open).
// It splits both trees on the in-range root of higher priority — the
// root of both when both hold its key, as priority is the key's hash.
func tdiff[K cmp.Ordered, V comparable](a, b *tnode[K, V], lo, hi *K, f func(K, V, V)) {
	a, b = tclip(a, lo, hi), tclip(b, lo, hi)
	if a == b {
		return
	}
	if a == nil || (b != nil && prioOf(b.k) > prioOf(a.k)) {
		tdiff(a, b.l, lo, &b.k, f)
		if av, _ := (tmap[K, V]{root: a}).get(b.k); av != b.v {
			f(b.k, av, b.v)
		}
		tdiff(a, b.r, &b.k, hi, f)
		return
	}
	tdiff(a.l, b, lo, &a.k, f)
	if bv, _ := (tmap[K, V]{root: b}).get(a.k); bv != a.v {
		f(a.k, a.v, bv)
	}
	tdiff(a.r, b, &a.k, hi, f)
}

// tclip descends to the highest node of n strictly between lo and hi,
// whose subtree holds every in-range key of n.
func tclip[K cmp.Ordered, V any](n *tnode[K, V], lo, hi *K) *tnode[K, V] {
	for n != nil {
		switch {
		case lo != nil && n.k <= *lo:
			n = n.r
		case hi != nil && n.k >= *hi:
			n = n.l
		default:
			return n
		}
	}
	return nil
}

// idset is a persistent set of object IDs — the posting-list type for
// every secondary index family.
type idset = tmap[core.ID, struct{}]

func (m tmap[K, V]) keys() []K {
	out := make([]K, 0, m.len())
	m.ascend(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}
