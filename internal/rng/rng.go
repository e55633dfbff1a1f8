// Package rng provides a small deterministic pseudo-random number generator
// used for workload realization and synthetic traffic generation.
//
// The library must be bit-reproducible across runs and platforms — every
// figure regenerated from the same inputs must be identical — so it uses an
// explicit SplitMix64 generator seeded by the caller rather than any global
// or time-seeded source.
package rng

import "math"

// Source is a SplitMix64 generator. The zero value is a valid generator
// seeded with zero; use New to seed explicitly.
type Source struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// Value returns a generator seeded with seed as a value, for hot paths that
// keep the source on the stack instead of allocating. A Value-seeded source
// produces the identical stream to New(seed).
func Value(seed uint64) Source { return Source{state: seed} }

// Derive returns a new independent generator deterministically derived from
// this generator's seed and the given stream identifier. It does not
// advance the parent. Use it to give each (benchmark, sample) pair its own
// stream so realizations are order-independent.
func (s *Source) Derive(stream uint64) *Source {
	mix := s.state ^ (stream * 0x9e3779b97f4a7c15)
	d := &Source{state: mix}
	d.Uint64() // decorrelate from the raw seed
	return d
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Norm returns an approximately standard-normal value using the sum of
// uniforms (Irwin–Hall with 12 terms), which is plenty for jitter modeling
// and avoids trig/log edge cases.
func (s *Source) Norm() float64 {
	sum := 0.0
	for i := 0; i < 12; i++ {
		sum += s.Float64()
	}
	return sum - 6
}

// LogNormFactor returns a multiplicative jitter factor with median 1 whose
// log has standard deviation sigma. sigma = 0 returns exactly 1.
func (s *Source) LogNormFactor(sigma float64) float64 {
	if sigma == 0 {
		return 1
	}
	return math.Exp(sigma * s.Norm())
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}
