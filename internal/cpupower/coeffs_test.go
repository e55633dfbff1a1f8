package cpupower

// Equivalence suite pinning the hoisted Coeffs energy evaluation to
// Model.Energy bit-for-bit across the OPP ladders and activity range, and
// the energy to be non-negative there.

import (
	"slices"
	"testing"

	"mcdvfs/internal/freq"
)

func TestCoeffsMatchModel(t *testing.T) {
	for name, p := range map[string]Params{
		"default": DefaultParams(),
		"little":  LittleParams(),
	} {
		m := MustNew(p)
		var ladder []freq.MHz
		if name == "little" {
			ladder = freq.Ladder(100, 600, 100)
		} else {
			ladder = slices.Concat(freq.CoarseSpace().CPULadder(), freq.FineSpace().CPULadder())
		}
		for _, f := range ladder {
			c, err := m.CoeffsAt(f)
			if err != nil {
				t.Fatalf("%s: CoeffsAt(%v): %v", name, f, err)
			}
			for _, activity := range []float64{0, 0.25, 0.5, 0.999, 1} {
				for _, durNS := range []float64{0, 1, 1e6, 3.7e9} {
					want, err := m.Energy(f, activity, durNS)
					if err != nil {
						t.Fatalf("%s: Energy(%v, %v, %v): %v", name, f, activity, durNS, err)
					}
					if got := c.EnergyJ(activity, durNS); got != want {
						t.Errorf("%s: f=%v a=%v dur=%v: coeffs energy %v != model %v",
							name, f, activity, durNS, got, want)
					}
					if !(want >= 0) {
						t.Errorf("%s: f=%v a=%v dur=%v: energy %v is negative", name, f, activity, durNS, want)
					}
				}
			}
		}
	}
}

func TestCoeffsAtRejectsUnknownOPP(t *testing.T) {
	m := MustNew(DefaultParams())
	if _, err := m.CoeffsAt(5000); err == nil {
		t.Error("frequency outside the OPP table accepted")
	}
}
