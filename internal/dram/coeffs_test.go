package dram

// Equivalence suite pinning EnergyCoeffs to EnergyModel.Energy bit-for-bit
// over every memory clock of both spaces, with the energy non-negative
// there, plus the boundary behaviour of the centralized count rounding rule.

import (
	"math"
	"slices"
	"testing"

	"mcdvfs/internal/freq"
)

func TestEnergyCoeffsMatchModel(t *testing.T) {
	m, err := NewEnergyModel(DefaultDevice())
	if err != nil {
		t.Fatal(err)
	}
	countCases := []Counts{
		{},
		{Activates: 120, Reads: 900, Writes: 300},
		{Activates: 1, Reads: 0, Writes: 1, Refreshes: 7},
		{Activates: 1 << 20, Reads: 1 << 22, Writes: 1 << 21},
	}
	for _, f := range slices.Concat(freq.CoarseSpace().MemLadder(), freq.FineSpace().MemLadder()) {
		c, err := m.CoeffsAt(f)
		if err != nil {
			t.Fatalf("CoeffsAt(%v): %v", f, err)
		}
		for _, counts := range countCases {
			for _, durNS := range []float64{0, 1, 2.5e6, 8e9} {
				want, err := m.Energy(f, counts, durNS)
				if err != nil {
					t.Fatalf("Energy(%v, %+v, %v): %v", f, counts, durNS, err)
				}
				if got := c.EnergyJ(counts, durNS); got != want {
					t.Errorf("f=%v counts=%+v dur=%v: coeffs energy %v != model %v",
						f, counts, durNS, got, want)
				}
				if !(want >= 0) {
					t.Errorf("f=%v counts=%+v dur=%v: energy %v is negative", f, counts, durNS, want)
				}
			}
		}
	}
}

func TestEnergyCoeffsAtRejectsBadClock(t *testing.T) {
	m, err := NewEnergyModel(DefaultDevice())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CoeffsAt(50); err == nil {
		t.Error("under-range clock accepted")
	}
}

func TestRoundCount(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0},
		{0.4999999, 0},
		{0.5, 1}, // half away from zero, matching the old int(x+0.5) here
		{1.5, 2},
		{2.4999999999, 2},
		{2.5000000001, 3},
		{1e9 + 0.5, 1e9 + 1},
		// The case the old idiom got wrong: 2^52+1 is exactly representable,
		// but (2^52+1)+0.5 rounds to nearest-even = 2^52+2, so int(x+0.5)
		// returned 2^52+2 for an exact integer input. math.Round is exact.
		{1 << 52, 1 << 52},
		{(1 << 52) + 1, (1 << 52) + 1},
	}
	for _, c := range cases {
		if got := RoundCount(c.x); got != c.want {
			t.Errorf("RoundCount(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	// Pin the divergence itself so the rationale stays true: the old idiom
	// really does mis-round this input. Go constant arithmetic is exact, so
	// the addition must happen in a runtime float64.
	x := float64((1 << 52) + 1)
	if old := int(x + 0.5); old == (1<<52)+1 {
		t.Error("int(x+0.5) no longer mis-rounds 2^52+1; RoundCount's rationale comment is stale")
	}
	if math.Round(x) != x {
		t.Error("math.Round not exact at 2^52+1")
	}
}
