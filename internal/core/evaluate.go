package core

import (
	"fmt"

	"mcdvfs/internal/freq"
)

// Overhead models the cost of one tuning event: computing inefficiencies,
// searching for the new setting, and transitioning the hardware (PLL
// relock, DRAM retraining). The paper measures 500 µs and 30 µJ for its
// 70-setting search.
type Overhead struct {
	TimeNS  float64
	EnergyJ float64
}

// DefaultOverhead returns the paper's measured tuning overhead.
func DefaultOverhead() Overhead {
	return Overhead{TimeNS: 500_000, EnergyJ: 30e-6}
}

// ExecResult is the end-to-end outcome of running a schedule.
type ExecResult struct {
	TimeNS      float64
	EnergyJ     float64
	Transitions int
}

// Execute plays a schedule against the grid, optionally charging the
// tuning overhead once per setting transition. (The initial setting is
// free: the system must start somewhere.)
func (a *Analysis) Execute(sch Schedule, oh Overhead) (ExecResult, error) {
	if len(sch) != a.NumSamples() {
		return ExecResult{}, fmt.Errorf("core: schedule length %d != samples %d", len(sch), a.NumSamples())
	}
	var res ExecResult
	for s, k := range sch {
		if int(k) < 0 || int(k) >= a.NumSettings() {
			return ExecResult{}, fmt.Errorf("core: schedule sample %d has invalid setting %d", s, k)
		}
		m := a.grid.At(s, k)
		res.TimeNS += m.TimeNS
		res.EnergyJ += m.EnergyJ()
		if s > 0 && sch[s] != sch[s-1] {
			res.Transitions++
			res.TimeNS += oh.TimeNS
			res.EnergyJ += oh.EnergyJ
		}
	}
	return res, nil
}

// Tradeoff compares a cluster-threshold schedule against optimal tracking
// for one budget (Figure 11): performance degradation and energy delta,
// each relative to the optimal schedule, with and without tuning overhead.
type Tradeoff struct {
	Budget    float64
	Threshold float64

	// Without tuning overhead.
	PerfDegradationPct float64 // positive = slower than optimal tracking
	EnergyDeltaPct     float64 // negative = saves energy vs optimal tracking

	// With tuning overhead charged per transition on both sides.
	PerfDegradationWithOverheadPct float64
	EnergyDeltaWithOverheadPct     float64

	OptimalTransitions int
	RegionTransitions  int
}

// EvaluateTradeoff computes the Figure 11 comparison for one benchmark,
// budget, and threshold.
func (a *Analysis) EvaluateTradeoff(budget, threshold float64, oh Overhead) (Tradeoff, error) {
	optSch, err := a.OptimalSchedule(budget)
	if err != nil {
		return Tradeoff{}, err
	}
	regions, err := a.StableRegions(budget, threshold)
	if err != nil {
		return Tradeoff{}, err
	}
	regSch := RegionSchedule(a.NumSamples(), regions)

	free := Overhead{}
	optFree, err := a.Execute(optSch, free)
	if err != nil {
		return Tradeoff{}, err
	}
	regFree, err := a.Execute(regSch, free)
	if err != nil {
		return Tradeoff{}, err
	}
	optOH, err := a.Execute(optSch, oh)
	if err != nil {
		return Tradeoff{}, err
	}
	regOH, err := a.Execute(regSch, oh)
	if err != nil {
		return Tradeoff{}, err
	}

	pct := func(x, ref float64) float64 { return (x - ref) / ref * 100 }
	return Tradeoff{
		Budget:                         budget,
		Threshold:                      threshold,
		PerfDegradationPct:             pct(regFree.TimeNS, optFree.TimeNS),
		EnergyDeltaPct:                 pct(regFree.EnergyJ, optFree.EnergyJ),
		PerfDegradationWithOverheadPct: pct(regOH.TimeNS, optOH.TimeNS),
		EnergyDeltaWithOverheadPct:     pct(regOH.EnergyJ, optOH.EnergyJ),
		OptimalTransitions:             optFree.Transitions,
		RegionTransitions:              regFree.Transitions,
	}, nil
}

// PinnedResult executes the whole run pinned at one setting (no
// transitions), used for Figure 2 style whole-run comparisons.
func (a *Analysis) PinnedResult(k freq.SettingID) ExecResult {
	return ExecResult{
		TimeNS:  a.runTimeNS[int(k)],
		EnergyJ: a.runEnergyJ[int(k)],
	}
}
