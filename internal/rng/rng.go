// Package rng provides a small deterministic pseudo-random number generator
// used for workload realization, measurement noise and synthetic traffic
// generation.
//
// Every figure regenerated from the same inputs must be identical, so it
// uses an explicit SplitMix64 generator seeded by the caller rather than
// any global or time-seeded source. The integer stream, and every value
// built from it by integer and basic float arithmetic (Uint64, Float64,
// Intn, Norm), is bit-reproducible across runs and platforms.
// LogNormFactor and LogNorm3 are reproducible across runs but not across
// hosts: they round through math.Exp, whose last bit can depend on the
// CPU. On amd64, math.Exp is assembly that takes an FMA path on CPUs with
// AVX and FMA, and rounds about 1.5% of arguments in [-0.06, 0.06] one ulp
// apart from the path without it: math.Exp(0.01) is 0x3ff0292a5d2f2227 on
// the FMA path and 0x3ff0292a5d2f2226 without it. Workload jitter and
// measurement noise, and so every grid, inherit that dependence.
package rng

import "math"

// Source is a SplitMix64 generator. The zero value is a valid generator
// seeded with zero; use New to seed explicitly.
type Source struct {
	state uint64
}

// golden is SplitMix64's state increment: the state is a counter, so the
// j-th draw from seed mixes seed + j·golden.
const golden = 0x9e3779b97f4a7c15

// New returns a generator seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// Derive returns a new independent generator deterministically derived from
// this generator's seed and the given stream identifier. It does not
// advance the parent. Use it to give each (benchmark, sample) pair its own
// stream so realizations are order-independent.
func (s *Source) Derive(stream uint64) *Source {
	d := &Source{state: s.state ^ (stream * golden)}
	d.Uint64() // decorrelate from the raw seed
	return d
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// mix is SplitMix64's output function, the one mixer behind Uint64 and
// LogNorm3.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return unit(s.Uint64()) }

// unit maps 64 random bits to a uniform value in [0, 1).
func unit(z uint64) float64 { return float64(z>>11) / (1 << 53) }

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

// LogNorm3 returns, bit for bit, the three factors that three successive
// LogNormFactor(sigma) calls on New(seed) return. It draws the three sums
// of 12 uniforms side by side, each adding its own terms in Norm's order,
// so the three chains of additions overlap instead of running one after
// another. sigma = 0 returns exactly 1 three times.
func LogNorm3(seed uint64, sigma float64) (a, b, c float64) {
	if sigma == 0 {
		return 1, 1, 1
	}
	sa, sb, sc := 0.0, 0.0, 0.0
	for j := uint64(1); j <= 12; j++ {
		sa += unit(mix(seed + j*golden))
		sb += unit(mix(seed + (j+12)*golden))
		sc += unit(mix(seed + (j+24)*golden))
	}
	return math.Exp(sigma * (sa - 6)), math.Exp(sigma * (sb - 6)), math.Exp(sigma * (sc - 6))
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}
