package core

import (
	"testing"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

func TestOptimalSettingPicksFastestInBudget(t *testing.T) {
	a := analysisFor(t,
		[][]float64{{200, 180, 110, 100}},
		[][]float64{{2.0, 2.5, 3.0, 4.0}},
	)
	// Budget 1.3 admits {0,1}; setting 1 is faster.
	k, err := a.OptimalSetting(0, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Errorf("optimal under 1.3 = %d, want 1", k)
	}
	// Unconstrained picks the fastest overall (setting 3).
	k, _ = a.OptimalSetting(0, Unconstrained)
	if k != 3 {
		t.Errorf("optimal under inf = %d, want 3", k)
	}
	// Budget 1 forces the Emin setting.
	k, _ = a.OptimalSetting(0, 1)
	if k != 0 {
		t.Errorf("optimal under 1 = %d, want 0", k)
	}
}

func TestOptimalTieBreakPrefersHighCPUThenMem(t *testing.T) {
	// Settings 2 (1000/400) and 3 (1000/800) and 1 (500/800) all within
	// 0.5% speedup; tie-break should pick ID 3 (highest CPU, then mem).
	a := analysisFor(t,
		[][]float64{{200, 100.4, 100.2, 100}},
		[][]float64{{2.0, 2.0, 2.0, 2.0}},
	)
	k, err := a.OptimalSetting(0, Unconstrained)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Errorf("tie-break picked %d (%v), want 3 (1000/800)", k, a.Grid().Setting(k))
	}
}

func TestOptimalTieBreakCPUBeforeMem(t *testing.T) {
	// Only settings 1 (500/800) and 2 (1000/400) tie: the rule prefers
	// higher CPU over higher memory.
	a := analysisFor(t,
		[][]float64{{200, 100.2, 100, 150}},
		[][]float64{{2.0, 2.0, 2.0, 2.0}},
	)
	k, err := a.OptimalSetting(0, Unconstrained)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Errorf("tie-break picked %d (%v), want 2 (1000/400)", k, a.Grid().Setting(k))
	}
}

func TestOptimalScheduleAndTransitions(t *testing.T) {
	a := analysisFor(t,
		[][]float64{
			{200, 180, 110, 100}, // fastest in budget 1.3: setting 1
			{200, 180, 110, 100}, // same
			{100, 180, 110, 200}, // now setting 0 is fastest AND cheapest
		},
		[][]float64{
			{2.0, 2.5, 3.0, 4.0},
			{2.0, 2.5, 3.0, 4.0},
			{2.0, 2.5, 3.0, 4.0},
		},
	)
	sch, err := a.OptimalSchedule(1.3)
	if err != nil {
		t.Fatal(err)
	}
	want := Schedule{1, 1, 0}
	for i := range want {
		if sch[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", sch, want)
		}
	}
	if got := sch.Transitions(); got != 1 {
		t.Errorf("transitions = %d, want 1", got)
	}
}

func TestTransitionsPerBillion(t *testing.T) {
	a := analysisFor(t,
		[][]float64{
			{200, 180, 110, 100},
			{200, 180, 110, 100},
		},
		[][]float64{
			{2.0, 2.5, 3.0, 4.0},
			{2.0, 2.5, 3.0, 4.0},
		},
	)
	// 2 samples x 10M instructions = 0.02 B instructions.
	if got := a.TransitionsPerBillion(1); got != 50 {
		t.Errorf("TransitionsPerBillion(1) = %v, want 50", got)
	}
}

func TestScheduleTransitionsCounting(t *testing.T) {
	cases := []struct {
		sch  Schedule
		want int
	}{
		{Schedule{}, 0},
		{Schedule{1}, 0},
		{Schedule{1, 1, 1}, 0},
		{Schedule{1, 2, 1}, 2},
		{Schedule{1, 2, 2, 3}, 2},
	}
	for _, c := range cases {
		if got := c.sch.Transitions(); got != c.want {
			t.Errorf("Transitions(%v) = %d, want %d", c.sch, got, c.want)
		}
	}
}

func TestPreferHigher(t *testing.T) {
	cases := []struct {
		a, b freq.Setting
		want bool
	}{
		{freq.Setting{CPU: 1000, Mem: 200}, freq.Setting{CPU: 500, Mem: 800}, true},
		{freq.Setting{CPU: 500, Mem: 800}, freq.Setting{CPU: 500, Mem: 400}, true},
		{freq.Setting{CPU: 500, Mem: 400}, freq.Setting{CPU: 500, Mem: 800}, false},
		{freq.Setting{CPU: 500, Mem: 400}, freq.Setting{CPU: 500, Mem: 400}, false},
	}
	for _, c := range cases {
		if got := preferHigher(c.a, c.b); got != c.want {
			t.Errorf("preferHigher(%v, %v) = %v", c.a, c.b, got)
		}
	}
}

// composedOptimal is the selection as WithinBudget's candidate list
// followed by the max-speedup and tie-break rule over it, the two-step
// form OptimalSetting's in-place scan replaced.
func composedOptimal(a *Analysis, sample int, budget float64) (freq.SettingID, bool) {
	ids, err := a.WithinBudget(sample, budget)
	if err != nil || len(ids) == 0 {
		return 0, false
	}
	best := 0.0
	for _, k := range ids {
		if sp := a.Speedup(sample, k); sp > best {
			best = sp
		}
	}
	chosen := freq.SettingID(-1)
	for _, k := range ids {
		if a.Speedup(sample, k) < best*(1-SpeedupTieBand) {
			continue
		}
		if chosen < 0 || preferHigher(a.Grid().Setting(k), a.Grid().Setting(chosen)) {
			chosen = k
		}
	}
	return chosen, true
}

func TestOptimalSettingMatchesComposedSelection(t *testing.T) {
	// Every sample of three collected benchmarks, in both spaces, at the
	// Figure 10 budgets (experiments.Fig10Budgets) and unconstrained.
	sys := sim.MustNew(sim.DefaultConfig())
	budgets := []float64{1.0, 1.1, 1.2, 1.3, 1.6, Unconstrained}
	for _, name := range []string{"gobmk", "milc", "lbm"} {
		for _, space := range []*freq.Space{freq.CoarseSpace(), freq.FineSpace()} {
			g, err := trace.Collect(sys, workload.MustByName(name), space)
			if err != nil {
				t.Fatal(err)
			}
			a, err := NewAnalysis(g)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < a.NumSamples(); s++ {
				for _, b := range budgets {
					want, ok := composedOptimal(a, s, b)
					got, err := a.OptimalSetting(s, b)
					if !ok || err != nil {
						t.Fatalf("%s/%d sample %d budget %v: composed ok=%v, scan err %v", name, space.Len(), s, b, ok, err)
					}
					if got != want {
						t.Fatalf("%s/%d sample %d budget %v: scan picked %v, composed selection %v",
							name, space.Len(), s, b, g.Setting(got), g.Setting(want))
					}
					c, err := a.ClusterAt(s, b, 0.05)
					if err != nil || c.Optimal != want {
						t.Fatalf("%s/%d sample %d budget %v: cluster optimal %v (err %v), want %v", name, space.Len(), s, b, c.Optimal, err, want)
					}
				}
			}
		}
	}
}
