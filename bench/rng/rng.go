// Package rng is the benchmark's own deterministic generator, so the
// inputs a seed produces never depend on the Go release or on code
// outside bench/. internal/workload has a splitmix64 too, and sharing
// it would tie every schedule_hash to a file a later change may edit:
// parent and change would then be measured on different inputs. The
// benchmark owns every line its inputs come from; the cost is twenty
// lines that exist twice.
package rng

import "math"

// RNG is splitmix64. The zero value is a valid generator for seed 0.
type RNG struct{ s uint64 }

// New returns a generator for seed. Streams for different purposes
// are derived with Fork so adding draws to one never shifts another.
func New(seed uint64) *RNG { return &RNG{s: seed} }

// Fork derives an independent generator labelled by tag.
func (r *RNG) Fork(tag string) *RNG {
	h := r.s ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(tag); i++ {
		h = (h ^ uint64(tag[i])) * 0x100000001b3
	}
	f := &RNG{s: h}
	f.Uint64()
	return f
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Shuffle permutes n items through swap (Fisher-Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^s from a precomputed cumulative table.
type Zipf struct{ cum []float64 }

// NewZipf builds the table for n ranks and exponent s.
func NewZipf(n int, s float64) *Zipf {
	cum := make([]float64, n)
	sum := 0.0
	for i := range cum {
		sum += 1 / math.Pow(float64(i+1), s)
		cum[i] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	return &Zipf{cum: cum}
}

// Draw returns a rank.
func (z *Zipf) Draw(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
