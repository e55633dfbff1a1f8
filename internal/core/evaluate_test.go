package core

import (
	"math"
	"testing"
)

func TestExecuteAccounting(t *testing.T) {
	a := analysisFor(t,
		[][]float64{
			{200, 180, 110, 100},
			{200, 180, 110, 100},
			{100, 180, 110, 200},
		},
		[][]float64{
			{2.0, 2.5, 3.0, 4.0},
			{2.0, 2.5, 3.0, 4.0},
			{2.0, 2.5, 3.0, 4.0},
		},
	)
	sch := Schedule{1, 1, 0}
	free, err := a.Execute(sch, Overhead{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(free.TimeNS-(180+180+100)) > 1e-9 {
		t.Errorf("time = %v, want 460", free.TimeNS)
	}
	if math.Abs(free.EnergyJ-(2.5+2.5+2.0)) > 1e-9 {
		t.Errorf("energy = %v, want 7", free.EnergyJ)
	}
	if free.Transitions != 1 {
		t.Errorf("transitions = %d, want 1", free.Transitions)
	}

	oh := Overhead{TimeNS: 10, EnergyJ: 0.5}
	withOH, err := a.Execute(sch, oh)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(withOH.TimeNS-free.TimeNS-10) > 1e-9 {
		t.Errorf("overhead time not charged once: %v vs %v", withOH.TimeNS, free.TimeNS)
	}
	if math.Abs(withOH.EnergyJ-free.EnergyJ-0.5) > 1e-9 {
		t.Errorf("overhead energy not charged once")
	}
}

func TestExecuteValidation(t *testing.T) {
	a := analysisFor(t,
		[][]float64{{200, 180, 110, 100}},
		[][]float64{{2.0, 2.5, 3.0, 4.0}},
	)
	if _, err := a.Execute(Schedule{1, 2}, Overhead{}); err == nil {
		t.Error("wrong-length schedule accepted")
	}
	if _, err := a.Execute(Schedule{9}, Overhead{}); err == nil {
		t.Error("invalid setting ID accepted")
	}
}

func TestDefaultOverheadMatchesPaper(t *testing.T) {
	oh := DefaultOverhead()
	if oh.TimeNS != 500_000 {
		t.Errorf("overhead time = %v ns, want 500µs", oh.TimeNS)
	}
	if oh.EnergyJ != 30e-6 {
		t.Errorf("overhead energy = %v J, want 30µJ", oh.EnergyJ)
	}
}

func TestTradeoffDegradationBoundedByThreshold(t *testing.T) {
	// The region schedule can only pick settings within the cluster
	// threshold of per-sample optimal, so end-to-end degradation without
	// overhead must stay within the threshold.
	a := regionFixture(t)
	for _, th := range []float64{0.01, 0.05} {
		tr, err := a.EvaluateTradeoff(Unconstrained, th, DefaultOverhead())
		if err != nil {
			t.Fatal(err)
		}
		maxPct := th * 100 / (1 - th) // speedup bound translated to time
		// The band is two-sided, and the 0.5% tie band can make the
		// nominal optimal slightly slower than the true fastest, so small
		// negative degradation is legitimate.
		if tr.PerfDegradationPct < -(maxPct + 0.6) {
			t.Errorf("th %v: improvement %v%% beyond band", th, tr.PerfDegradationPct)
		}
		if tr.PerfDegradationPct > maxPct+1e-9 {
			t.Errorf("th %v: degradation %v%% exceeds threshold bound %v%%", th, tr.PerfDegradationPct, maxPct)
		}
	}
}

func TestTradeoffFewerTransitionsThanOptimal(t *testing.T) {
	a := regionFixture(t)
	tr, err := a.EvaluateTradeoff(Unconstrained, 0.05, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	if tr.RegionTransitions > tr.OptimalTransitions {
		t.Errorf("region transitions %d exceed optimal tracking %d",
			tr.RegionTransitions, tr.OptimalTransitions)
	}
}

func TestTradeoffOverheadHelpsWhenTransitionsDrop(t *testing.T) {
	// Build a run where optimal tracking transitions every sample but one
	// setting is within 5% everywhere: with overhead the region schedule
	// must beat optimal tracking (the paper's Fig 11b observation).
	times := make([][]float64, 10)
	energies := make([][]float64, 10)
	for s := range times {
		if s%2 == 0 {
			times[s] = []float64{1e6, 1.02e6, 1.04e6, 1.01e6}
		} else {
			times[s] = []float64{1.02e6, 1e6, 1.04e6, 1.01e6}
		}
		energies[s] = []float64{2, 2, 2, 2}
	}
	a, err := NewAnalysis(mkGrid(t, fourSettings(), times, energies))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := a.EvaluateTradeoff(Unconstrained, 0.05, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	if tr.OptimalTransitions == 0 {
		t.Fatal("fixture broken: optimal tracking should oscillate")
	}
	if tr.RegionTransitions != 0 {
		t.Fatalf("fixture broken: one setting should cover all samples, got %d transitions", tr.RegionTransitions)
	}
	if tr.PerfDegradationWithOverheadPct >= 0 {
		t.Errorf("with overhead, region schedule should beat optimal tracking: %+v", tr)
	}
}

func TestPinnedResult(t *testing.T) {
	a := analysisFor(t,
		[][]float64{
			{200, 180, 110, 100},
			{100, 90, 60, 50},
		},
		[][]float64{
			{2.0, 2.5, 3.0, 4.0},
			{1.0, 1.5, 2.0, 2.0},
		},
	)
	r := a.PinnedResult(2)
	if r.TimeNS != 170 || r.EnergyJ != 5.0 || r.Transitions != 0 {
		t.Errorf("PinnedResult = %+v", r)
	}
}
