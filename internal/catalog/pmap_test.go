package catalog

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// TestDiffReportsEachChangeOnce checks diff against a plain-map
// comparison: a map edited from another (shared structure), and two
// maps built independently (no shared nodes), must both report every
// key bound differently exactly once, in ascending order, with both
// sides' values.
func TestDiffReportsEachChangeOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]*int, 8)
	for i := range vals {
		vals[i] = new(int)
	}
	for round := 0; round < 50; round++ {
		var a tmap[uint64, *int]
		ref := map[uint64]*int{}
		for i := 0; i < rng.Intn(300); i++ {
			k, v := uint64(rng.Intn(400)), vals[rng.Intn(len(vals))]
			a, ref[k] = a.set(0, k, v), v
		}
		b, want := a, map[uint64]*int{}
		for k, v := range ref {
			want[k] = v
		}
		for i := 0; i < rng.Intn(20); i++ {
			k := uint64(rng.Intn(400))
			if rng.Intn(3) == 0 {
				b = b.del(0, k)
				delete(want, k)
			} else {
				v := vals[rng.Intn(len(vals))]
				b, want[k] = b.set(0, k, v), v
			}
		}
		var rebuilt tmap[uint64, *int]
		for k, v := range want {
			rebuilt = rebuilt.set(0, k, v)
		}
		for _, other := range []tmap[uint64, *int]{b, rebuilt} {
			seen, last := map[uint64]bool{}, -1
			diff(a, other, func(k uint64, av, bv *int) {
				if seen[k] {
					t.Fatalf("round %d: key %d reported twice", round, k)
				}
				if int(k) < last {
					t.Fatalf("round %d: key %d reported after %d", round, k, last)
				}
				seen[k], last = true, int(k)
				if av != ref[k] || bv != want[k] || av == bv {
					t.Fatalf("round %d: key %d reported as %p → %p, maps hold %p → %p", round, k, av, bv, ref[k], want[k])
				}
			})
			for k := range ref {
				if want[k] != ref[k] && !seen[k] {
					t.Fatalf("round %d: changed key %d not reported", round, k)
				}
			}
			for k := range want {
				if want[k] != ref[k] && !seen[k] {
					t.Fatalf("round %d: added key %d not reported", round, k)
				}
			}
		}
	}
}

// FuzzTreapEdit applies a run of sets and deletes under one owner
// token to a map that shares its nodes with a base, as a commit's edit
// does to the view it starts from. Each op is two bytes: the high bit
// of the first deletes, the second is the key. Afterwards:
//   - the base is untouched: the same root, the same nodes, and each
//     node's key, value, size, token and children as they were;
//   - the result binds what a plain map edited the same way binds, and
//     each of its nodes is the edit's or one of the base's;
//   - the result is, node for node, the treap a from-scratch build of
//     its bindings makes, as priorities hash the key.
func FuzzTreapEdit(f *testing.F) {
	f.Add(int64(1), uint8(40), []byte{0, 3, 1, 5, 0x80, 3, 2, 7, 0x81, 5})
	f.Add(int64(7), uint8(0), []byte{1, 1, 2, 2, 3, 3, 0x80, 2})
	f.Add(int64(42), uint8(200), []byte{0x81, 9, 0x82, 10, 5, 5, 5, 5, 0x90, 77, 6, 77})
	f.Fuzz(func(t *testing.T, seed int64, n uint8, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		var base tmap[uint64, uint64]
		ref := map[uint64]uint64{}
		baseOwn := newOwner()
		for i := 0; i < int(n); i++ {
			k, v := uint64(rng.Intn(256)), rng.Uint64()
			base, ref[k] = base.set(baseOwn, k, v), v
		}
		before := map[*tnode[uint64, uint64]]tnode[uint64, uint64]{}
		treapNodes(base.root, func(n *tnode[uint64, uint64]) { before[n] = *n })
		root := base.root

		own := newOwner()
		m, want := base, maps.Clone(ref)
		for i := 0; i+1 < len(ops); i += 2 {
			k := uint64(ops[i+1])
			if ops[i]&0x80 != 0 {
				m = m.del(own, k)
				delete(want, k)
			} else {
				v := uint64(ops[i])<<32 | uint64(i)
				m, want[k] = m.set(own, k, v), v
			}
		}

		if base.root != root {
			t.Fatal("the base's root moved")
		}
		seen := 0
		treapNodes(base.root, func(n *tnode[uint64, uint64]) {
			seen++
			if was, ok := before[n]; !ok || was != *n {
				t.Fatalf("base node %d changed: %+v, was %+v (known %v)", n.k, *n, was, ok)
			}
		})
		if seen != len(before) {
			t.Fatalf("base holds %d nodes, held %d", seen, len(before))
		}

		if m.len() != len(want) {
			t.Fatalf("edit holds %d keys, reference %d", m.len(), len(want))
		}
		treapNodes(m.root, func(n *tnode[uint64, uint64]) {
			if w, ok := want[n.k]; !ok || w != n.v {
				t.Fatalf("edit binds %d to %d, reference to %d (bound %v)", n.k, n.v, w, ok)
			}
			if _, shared := before[n]; n.own != own && !shared {
				t.Fatalf("node %d belongs to neither the edit nor the base (token %d)", n.k, n.own)
			}
		})

		var rebuilt tmap[uint64, uint64]
		for _, i := range rng.Perm(256) {
			if v, ok := want[uint64(i)]; ok {
				rebuilt = rebuilt.set(0, uint64(i), v)
			}
		}
		if path := sameTreap(m.root, rebuilt.root); path != "" {
			t.Fatalf("edit and rebuild differ at %s", path)
		}
	})
}

// treapNodes visits every node of n in key order.
func treapNodes[K cmp.Ordered, V any](n *tnode[K, V], visit func(*tnode[K, V])) {
	if n == nil {
		return
	}
	treapNodes(n.l, visit)
	visit(n)
	treapNodes(n.r, visit)
}

// sameTreap compares two treaps node for node — key, value, size and
// shape — and names the first path where they differ ("" if none).
func sameTreap[K cmp.Ordered, V comparable](a, b *tnode[K, V]) string {
	switch {
	case a == nil && b == nil:
		return ""
	case a == nil || b == nil:
		return "a missing node"
	case a.k != b.k || a.v != b.v || a.size != b.size:
		return fmt.Sprintf("node %v=%v #%d vs %v=%v #%d", a.k, a.v, a.size, b.k, b.v, b.size)
	}
	if p := sameTreap(a.l, b.l); p != "" {
		return fmt.Sprintf("%v.l: %s", a.k, p)
	}
	if p := sameTreap(a.r, b.r); p != "" {
		return fmt.Sprintf("%v.r: %s", a.k, p)
	}
	return ""
}
