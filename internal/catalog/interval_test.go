package catalog

import (
	"math/rand"
	"sort"
	"testing"

	"timedmedia/internal/core"
)

// TestIntervalRandomOpsAgainstMapOracle drives the treap with a long
// random add/replace/remove stream while a plain map holds the truth.
// After every mutation the structural invariants must hold; window
// queries are cross-checked against brute-force iteration of the map.
func TestIntervalRandomOpsAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ix spanIndex
	oracle := map[core.ID]Span{}

	bruteOverlap := func(lo, hi float64) []core.ID {
		var out []core.ID
		for id, s := range oracle {
			if s.Overlaps(lo, hi) {
				out = append(out, id)
			}
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		return out
	}

	const ops = 3000
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1: // remove (often a no-op on a missing id)
			id := core.ID(rng.Intn(200))
			ix = ix.remove(0, id)
			delete(oracle, id)
		default: // add or replace; duplicate starts are common on purpose
			id := core.ID(rng.Intn(200))
			start := float64(rng.Intn(40)) / 4
			s := Span{Start: start, End: start + 0.25 + rng.Float64()*5}
			ix = ix.add(0, id, s)
			oracle[id] = s
		}
		if err := ix.check(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if ix.len() != len(oracle) {
			t.Fatalf("op %d: len = %d, oracle %d", i, ix.len(), len(oracle))
		}
		if i%25 != 0 {
			continue
		}
		lo := rng.Float64() * 12
		for _, w := range [][2]float64{{lo, lo + rng.Float64()*4}, {lo, lo}, {-5, -1}, {0, 100}} {
			got := ix.overlapping(w[0], w[1], nil)
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			want := bruteOverlap(w[0], w[1])
			if len(got) != len(want) {
				t.Fatalf("op %d window %v: got %v, want %v", i, w, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("op %d window %v: got %v, want %v", i, w, got, want)
				}
			}
		}
	}

	// Drain completely; the tree must empty out cleanly.
	for id := range oracle {
		ix = ix.remove(0, id)
	}
	if ix.len() != 0 || ix.root != nil {
		t.Errorf("after drain: len=%d root=%v", ix.len(), ix.root)
	}
	if err := ix.check(); err != nil {
		t.Errorf("after drain: %v", err)
	}
}

// TestIntervalSpanOfAndReplace pins the replace-in-place semantics of
// add: re-adding an id moves its span, never duplicates it.
func TestIntervalSpanOfAndReplace(t *testing.T) {
	var ix spanIndex
	ix = ix.add(0, 1, Span{Start: 0, End: 2})
	ix = ix.add(0, 2, Span{Start: 1, End: 3})
	ix = ix.add(0, 1, Span{Start: 10, End: 12}) // replace

	if s, ok := ix.spanOf(1); !ok || s.Start != 10 || s.End != 12 {
		t.Errorf("spanOf(1) = %v %v", s, ok)
	}
	if _, ok := ix.spanOf(99); ok {
		t.Error("spanOf(99) reported a span")
	}
	if ix.len() != 2 {
		t.Errorf("len = %d", ix.len())
	}
	if got := ix.overlapping(0, 5, nil); len(got) != 1 || got[0] != 2 {
		t.Errorf("old span of 1 still queryable: %v", got)
	}
	if got := ix.overlapping(11, 11, nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("new span of 1 missing: %v", got)
	}
	if err := ix.check(); err != nil {
		t.Error(err)
	}
}

// TestSpanOverlapsHalfOpen pins the boundary rule: Start is inclusive,
// End exclusive.
func TestSpanOverlapsHalfOpen(t *testing.T) {
	s := Span{Start: 2, End: 5}
	cases := []struct {
		lo, hi float64
		want   bool
	}{
		{2, 2, true},  // instant at start
		{5, 5, false}, // instant at (exclusive) end
		{4.999, 4.999, true},
		{0, 2, true}, // window touching start matches (hi inclusive)
		{0, 1.999, false},
		{5, 9, false}, // window starting at end misses
		{4, 9, true},
		{-3, -1, false},
	}
	for _, c := range cases {
		if got := s.Overlaps(c.lo, c.hi); got != c.want {
			t.Errorf("[2,5).Overlaps(%v,%v) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}
