package core

import (
	"math"
	"testing"
	"testing/quick"

	"mcdvfs/internal/freq"
)

func TestParetoFrontierHandComputed(t *testing.T) {
	// Settings: 0 slow/cheap, 1 dominated (slower AND costlier than 2),
	// 2 mid, 3 fast/expensive.
	a := analysisFor(t,
		[][]float64{{200, 160, 150, 100}},
		[][]float64{{2.0, 3.5, 3.0, 4.0}},
	)
	fr := a.ParetoFrontier()
	if len(fr) != 3 {
		t.Fatalf("frontier size %d, want 3: %+v", len(fr), fr)
	}
	// Sorted by ascending time: 3 (100), 2 (150), 0 (200).
	wantOrder := []freq.SettingID{3, 2, 0}
	for i, w := range wantOrder {
		if fr[i].Setting != w {
			t.Errorf("frontier[%d] = %d, want %d", i, fr[i].Setting, w)
		}
	}
	for _, p := range fr {
		if p.Setting == 1 {
			t.Error("dominated setting on frontier")
		}
	}
}

func TestParetoExtremesOnFrontier(t *testing.T) {
	// The fastest setting and the Emin setting are never dominated.
	f := func(seed uint64) bool {
		a := quickAnalysis(t, seed)
		fr := a.ParetoFrontier()
		if len(fr) == 0 {
			return false
		}
		fastest, cheapest := fr[0], fr[0]
		for k := 0; k < a.NumSettings(); k++ {
			id := freq.SettingID(k)
			r := a.PinnedResult(id)
			if r.TimeNS < a.PinnedResult(fastest.Setting).TimeNS {
				return false // someone faster than the frontier's head
			}
			_ = id
		}
		// Frontier contains a point with inefficiency 1 (the Emin
		// setting) — scan for it.
		foundEmin := false
		for _, p := range fr {
			if math.Abs(p.Inefficiency-1) < 1e-12 {
				foundEmin = true
			}
			if p.EnergyJ < cheapest.EnergyJ {
				cheapest = p
			}
		}
		return foundEmin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParetoNoMutualDomination(t *testing.T) {
	f := func(seed uint64) bool {
		a := quickAnalysis(t, seed)
		fr := a.ParetoFrontier()
		for i := range fr {
			for j := range fr {
				if i == j {
					continue
				}
				if fr[j].TimeNS <= fr[i].TimeNS && fr[j].EnergyJ <= fr[i].EnergyJ &&
					(fr[j].TimeNS < fr[i].TimeNS || fr[j].EnergyJ < fr[i].EnergyJ) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
