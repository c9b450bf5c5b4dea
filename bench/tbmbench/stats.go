package main

import (
	"sort"
	"time"
)

// percentile returns the p-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 when sorted is empty, as
// mean does, so that an op with no successful sample still yields a
// record that encodes as JSON.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailPercents are the candidates for "the highest percentile the
// sample supports", best first.
var tailPercents = []int{99, 95, 90, 75}

// highestSupported returns the highest candidate percentile that
// leaves at least ten samples beyond it, or 0.5 when none does.
func highestSupported(n int) float64 {
	for _, p := range tailPercents {
		if n*(100-p) >= 10*100 {
			return float64(p) / 100
		}
	}
	return 0.5
}

// msSorted converts durations to sorted milliseconds.
func msSorted(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// how the acceptance check measures spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
