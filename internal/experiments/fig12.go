package experiments

import (
	"context"
	"fmt"

	"mcdvfs/internal/core"
	"mcdvfs/internal/report"
	"mcdvfs/internal/stats"
)

// Fig12Side summarizes one setting-space granularity in the step-size
// sensitivity study.
type Fig12Side struct {
	Settings        int
	MeanClusterSize float64
	Regions         int
	MeanRegionLen   float64
	// OptimalTimeNS is the end-to-end time of per-sample optimal tracking
	// with free tuning.
	OptimalTimeNS float64
}

// Fig12Result reproduces Figure 12: sensitivity of performance clusters to
// the frequency step size (70 coarse settings vs 496 fine settings).
type Fig12Result struct {
	Benchmark string
	Budget    float64
	Threshold float64
	Coarse    Fig12Side
	Fine      Fig12Side
	// PerfGainPct is the optimal-tracking speed improvement of the fine
	// space over the coarse space when tuning is free; the paper observes
	// under 1%.
	PerfGainPct float64
}

// Fig12 computes the step-size sensitivity study.
func (l *Lab) Fig12(ctx context.Context, bench string, budget, threshold float64) (*Fig12Result, error) {
	coarse, err := l.AnalysisFor(ctx, l.key(bench, "coarse"))
	if err != nil {
		return nil, err
	}
	fine, err := l.AnalysisFor(ctx, l.key(bench, "fine"))
	if err != nil {
		return nil, err
	}
	side := func(a *core.Analysis) (Fig12Side, error) {
		clusters, err := a.Clusters(budget, threshold)
		if err != nil {
			return Fig12Side{}, err
		}
		regions, err := a.StableRegions(budget, threshold)
		if err != nil {
			return Fig12Side{}, err
		}
		sum, err := stats.SummarizeInts(core.RegionLengths(regions))
		if err != nil {
			return Fig12Side{}, err
		}
		sch, err := a.OptimalSchedule(budget)
		if err != nil {
			return Fig12Side{}, err
		}
		exec, err := a.Execute(sch, core.Overhead{})
		if err != nil {
			return Fig12Side{}, err
		}
		return Fig12Side{
			Settings:        a.NumSettings(),
			MeanClusterSize: core.MeanClusterSize(clusters),
			Regions:         len(regions),
			MeanRegionLen:   sum.Mean,
			OptimalTimeNS:   exec.TimeNS,
		}, nil
	}
	res := &Fig12Result{Benchmark: bench, Budget: budget, Threshold: threshold}
	if res.Coarse, err = side(coarse); err != nil {
		return nil, err
	}
	if res.Fine, err = side(fine); err != nil {
		return nil, err
	}
	res.PerfGainPct = (res.Coarse.OptimalTimeNS - res.Fine.OptimalTimeNS) / res.Coarse.OptimalTimeNS * 100
	return res, nil
}

// Table renders the comparison.
func (r *Fig12Result) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Figure 12 — %s: cluster sensitivity to frequency step size (I=%s, threshold %.0f%%); fine-grid perf gain %.2f%%",
			r.Benchmark, BudgetLabel(r.Budget), r.Threshold*100, r.PerfGainPct),
		"space", "settings", "mean cluster size", "regions", "mean region len")
	row := func(name string, s Fig12Side) {
		t.AddRow(name,
			fmt.Sprintf("%d", s.Settings),
			fmt.Sprintf("%.1f", s.MeanClusterSize),
			fmt.Sprintf("%d", s.Regions),
			fmt.Sprintf("%.1f", s.MeanRegionLen))
	}
	row("coarse(100MHz)", r.Coarse)
	row("fine(30/40MHz)", r.Fine)
	return t
}
