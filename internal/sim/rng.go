// Package sim provides the deterministic foundations of the cycle-level
// simulator: a seedable pseudo-random number generator and small helpers
// shared by all simulation components.
//
// Every source of randomness in the simulator flows from an RNG seeded from
// the experiment configuration, so that identical configurations reproduce
// identical cycle-by-cycle behaviour. This determinism is load-bearing: the
// test suite asserts exact packet counts and latencies for fixed seeds, and
// the benchmark harness relies on run-to-run stability to compare policies.
package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded via splitmix64). It is not safe for concurrent use;
// each simulated component that needs randomness owns its own RNG, derived
// from the experiment seed with Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Any seed, including zero, is
// valid: the state is expanded through splitmix64, which never yields the
// all-zero state xoshiro cannot escape.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator to the state derived from seed.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// SplitN derives the i-th of a family of independent generators without
// advancing the parent more than once per call. It is used to give each of
// the 256 cores (or 64 nodes) its own stream from one experiment seed.
func (r *RNG) SplitN(i int) *RNG {
	c := &RNG{}
	r.SplitNInto(i, c)
	return c
}

// SplitNInto seeds child in place with the state SplitN(i) would give a
// new generator, advancing r exactly as SplitN does. Callers that keep a
// family of generators by value in one slice seed them without one
// allocation per child.
func (r *RNG) SplitNInto(i int, child *RNG) {
	child.Reseed(r.Uint64() + uint64(i)*0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 pseudo-random bits. The state is worked on
// in locals so that the function stays within the inlining budget: the
// traffic generator draws once per node per cycle.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	r.s = [4]uint64{s0, s1, s2, s3}
	return result
}

// Intn returns a uniformly distributed int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	hi, lo := bits.Mul64(r.Uint64(), uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), uint64(n))
		}
	}
	return int(hi)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// BernoulliThreshold reduces Bernoulli(p) to an integer compare, for
// callers that make many trials with one p (the traffic generator makes
// one per node per cycle). With draw true, Bernoulli(p) draws once and
// fires iff Uint64()>>11 < thr; with draw false it draws nothing and
// fires iff thr != 0. The three cases of Bernoulli carry over exactly:
//
//   - p <= 0 draws nothing and never fires; p >= 1 draws nothing and
//     always fires;
//   - NaN fails both compares, so Bernoulli draws once and never fires;
//   - otherwise Bernoulli fires iff k/2^53 < p for the 53-bit k =
//     Uint64()>>11. Scaling by 2^53 is exact for every float64 in (0, 1),
//     subnormals included, so that holds iff k < p·2^53, and for an
//     integer k iff k < ceil(p·2^53) <= 2^53.
//
// The compare stays at the call site: Uint64 inlines only when called
// directly.
func BernoulliThreshold(p float64) (thr uint64, draw bool) {
	switch {
	case p <= 0:
		return 0, false
	case p >= 1:
		return 1, false
	case math.IsNaN(p):
		// uint64(NaN) is implementation-defined; pin "draw, never fire".
		return 0, true
	}
	return uint64(math.Ceil(p * (1 << 53))), true
}

// Geometric returns a sample from the geometric distribution with success
// probability p: the number of failures before the first success. It is the
// discrete analogue of an exponential inter-arrival time and is used for
// compute-burst lengths in the core model. For p <= 0 it returns a large
// sentinel; for p >= 1 it returns 0.
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return 1 << 30
	}
	// Inversion method; ln(u)/ln(1-p) truncated.
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	n := int(math.Log(u) / math.Log(1-p))
	if n < 0 {
		n = 0
	}
	return n
}
