// Package workload is the record/replay layer: a seeded op list to
// send at a live server, a framed capture-trace format, and a replay
// engine that asserts response equivalence against a rebuilt catalog.
//
// Everything downstream of a seed is a pure function of it: the same
// seed and inventory yield the same op list, and the same trace
// replayed against an identically seeded catalog yields a
// byte-identical replay report. That is the transaction-time promise
// the replay-determinism lane asserts (see scripts/replay_determinism.sh):
// a recorded history, replayed against the same starting state, gives
// the same answers.
package workload

// RNG is a small, explicit PRNG (splitmix64) owned by this package so
// op-list generation never depends on math/rand's cross-version
// stability. splitmix64 passes BigCrush, is trivially seekable, and —
// most importantly here — its output for a given seed is fixed by
// this file alone.
type RNG struct{ state uint64 }

// NewRNG returns a generator whose entire future output is determined
// by seed.
func NewRNG(seed int64) *RNG { return &RNG{state: uint64(seed)} }

// Uint64 advances the generator.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	// Modulo bias is ~n/2^64 — irrelevant for workload shaping, and
	// avoiding it would cost a rejection loop whose draw count depends
	// on n, complicating cross-run stream alignment.
	return int(r.Uint64() % uint64(n))
}
