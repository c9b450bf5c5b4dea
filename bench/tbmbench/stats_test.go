package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The reported tail is the highest percentile that still leaves ten
// samples beyond it.
func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {50000, 0.99}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4),
// which is what the acceptance check computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	flat := []float64{100, 100, 101, 99, 100}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, flat, []float64{105, 104, 106, 105, 105}, "same"},
		{lower, flat, []float64{115, 114, 116, 115, 115}, "worse"},
		{lower, flat, []float64{85, 84, 86, 85, 85}, "better"},
		{higher, flat, []float64{85, 84, 86, 85, 85}, "worse"},
		{higher, flat, []float64{115, 114, 116, 115, 115}, "better"},
		{lower, flat, []float64{80, 130, 100, 60, 140}, "unresolved"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v vs %v: %s, want %s", c.d.Better, c.a, c.b, got, c.want)
		}
	}
}
