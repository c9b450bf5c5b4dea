package workload

import "testing"

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Errorf("different seeds produced %d/100 equal draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(9)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		n := r.Intn(7)
		if n < 0 || n >= 7 {
			t.Fatalf("Intn(7) = %d", n)
		}
		seen[n] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d of 7 values", len(seen))
	}
}
