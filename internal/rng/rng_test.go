package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs", same)
	}
}

func TestDeriveDeterministicAndNonAdvancing(t *testing.T) {
	p := New(7)
	before := *p
	x := p.Derive(3).Uint64()
	if *p != before {
		t.Error("Derive advanced the parent generator")
	}
	y := New(7).Derive(3).Uint64()
	if x != y {
		t.Error("Derive from identical parent state not deterministic")
	}
}

func TestDeriveStreamsDiffer(t *testing.T) {
	p := New(9)
	a := p.Derive(1)
	b := p.Derive(2)
	if a.Uint64() == b.Uint64() {
		t.Error("different streams produced identical first output")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(17)
	n := 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormFactor(t *testing.T) {
	s := New(23)
	if got := s.LogNormFactor(0); got != 1 {
		t.Errorf("sigma=0 factor = %v, want exactly 1", got)
	}
	for i := 0; i < 1000; i++ {
		f := s.LogNormFactor(0.1)
		if f <= 0 {
			t.Fatalf("non-positive jitter factor %v", f)
		}
	}
}

// TestLogNorm3MatchesSequentialDraws is LogNorm3's oracle: on a million
// random seeds at each sigma, plus the seeds at both ends of the counter,
// its three factors equal three successive LogNormFactor draws from
// New(seed) bit for bit, and sigma = 0 gives exactly 1.
func TestLogNorm3MatchesSequentialDraws(t *testing.T) {
	seeds := New(0x10c0)
	for _, sigma := range []float64{0, 0.001, 0.01, 0.05, 0.2} {
		for n := 0; n < 1_000_002; n++ {
			seed := seeds.Uint64()
			switch n {
			case 0:
				seed = 0
			case 1:
				seed = math.MaxUint64
			}
			var got, want [3]float64
			got[0], got[1], got[2] = LogNorm3(seed, sigma)
			src := New(seed)
			for i := range want {
				want[i] = src.LogNormFactor(sigma)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("seed %#x, sigma %v: LogNorm3 factor %d is %v (%#x), LogNormFactor draw %d is %v (%#x)",
						seed, sigma, i, got[i], math.Float64bits(got[i]), i, want[i], math.Float64bits(want[i]))
				}
				if sigma == 0 && got[i] != 1 {
					t.Fatalf("seed %#x: sigma 0 factor %d is %v, want exactly 1", seed, i, got[i])
				}
			}
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(29)
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(5)
		if v < 0 {
			t.Fatalf("negative exponential %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-5) > 0.15 {
		t.Errorf("exponential mean = %v, want ~5", mean)
	}
}
