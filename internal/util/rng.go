// Package util provides small shared utilities for the OMS codebase:
// a fast seeded random number generator and integer mixing/hashing.
// Everything here is allocation-free on the hot path; streaming
// partitioners call into this package once per node.
package util

// RNG is a splitmix64 pseudo-random generator. It is deterministic for a
// given seed, has a full 2^64 period, and is much cheaper than math/rand
// for the per-node decisions made by streaming partitioners. The zero
// value is usable and equivalent to NewRNG(0).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next pseudo-random 32-bit value.
func (r *RNG) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("util: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free approximation is fine here:
	// bias is < 2^-32 for the n used in this codebase (block counts, node
	// counts), far below experimental noise.
	return int((uint64(r.Uint32()) * uint64(n)) >> 32)
}

// Int63n returns a uniform value in [0, n) for 64-bit ranges.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("util: Int63n with non-positive n")
	}
	v := r.Uint64() >> 1
	return int64(v % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles p in place (Fisher-Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// ShuffleInt32 shuffles p in place (Fisher-Yates).
func (r *RNG) ShuffleInt32(p []int32) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Fork derives an independent generator from r's stream. Deriving is
// deterministic: the same parent state always yields the same child. Used
// to give every worker/repetition its own stream without correlation.
func (r *RNG) Fork() *RNG {
	return &RNG{state: r.Uint64()}
}
