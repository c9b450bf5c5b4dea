package catalog

import (
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
			a, ref[k] = a.set(k, v), v
		}
		b, want := a, map[uint64]*int{}
		for k, v := range ref {
			want[k] = v
		}
		for i := 0; i < rng.Intn(20); i++ {
			k := uint64(rng.Intn(400))
			if rng.Intn(3) == 0 {
				b = b.del(k)
				delete(want, k)
			} else {
				v := vals[rng.Intn(len(vals))]
				b, want[k] = b.set(k, v), v
			}
		}
		var rebuilt tmap[uint64, *int]
		for k, v := range want {
			rebuilt = rebuilt.set(k, v)
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
