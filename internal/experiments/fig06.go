package experiments

import (
	"context"
	"fmt"

	"mcdvfs/internal/core"
	"mcdvfs/internal/report"
	"mcdvfs/internal/stats"
)

// Fig06Result reproduces Figure 6: the stable regions and transition
// points of lbm at inefficiency budget 1.3 and cluster threshold 5%.
type Fig06Result struct {
	Benchmark string
	Budget    float64
	Threshold float64
	Regions   []core.Region
	Settings  []string // chosen setting per region
}

// Fig06 computes the stable-region schedule for a benchmark.
func (l *Lab) Fig06(ctx context.Context, bench string, budget, threshold float64) (*Fig06Result, error) {
	a, err := l.AnalysisFor(ctx, l.key(bench, "coarse"))
	if err != nil {
		return nil, err
	}
	regions, err := a.StableRegions(budget, threshold)
	if err != nil {
		return nil, err
	}
	res := &Fig06Result{Benchmark: bench, Budget: budget, Threshold: threshold, Regions: regions}
	for _, r := range regions {
		res.Settings = append(res.Settings, a.Grid().Setting(r.Choice).String())
	}
	return res, nil
}

// Transitions returns the number of transitions the region schedule makes.
func (r *Fig06Result) Transitions() int { return len(r.Regions) - 1 }

// Table renders the region schedule.
func (r *Fig06Result) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Figure 6 — %s stable regions (I=%s, threshold %.0f%%): %d regions, %d transitions",
			r.Benchmark, BudgetLabel(r.Budget), r.Threshold*100, len(r.Regions), r.Transitions()),
		"region", "samples", "length", "setting", "avail")
	for i, reg := range r.Regions {
		t.AddRow(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("[%d,%d]", reg.Start, reg.End),
			fmt.Sprintf("%d", reg.Len()),
			r.Settings[i],
			fmt.Sprintf("%d", len(reg.Avail)),
		)
	}
	return t
}

// Fig07Case is one (benchmark, budget, threshold) stable-region summary.
type Fig07Case struct {
	Benchmark string
	Budget    float64
	Threshold float64
	Regions   int
	MeanLen   float64
}

// Fig07Result reproduces Figure 7: stable regions of gcc and lbm across
// thresholds and budgets, summarized as region counts and mean lengths.
type Fig07Result struct {
	Cases []Fig07Case
}

// Fig07 computes the stable-region comparison. The paper plots gcc and lbm
// at I=1.3 with thresholds 3% and 5%, noting that higher budgets run
// unconstrained throughout; budgets 1.0 and inf are included to show that.
func (l *Lab) Fig07(ctx context.Context, benches []string, budgets []float64, thresholds []float64) (*Fig07Result, error) {
	res := &Fig07Result{}
	for _, bench := range benches {
		a, err := l.AnalysisFor(ctx, l.key(bench, "coarse"))
		if err != nil {
			return nil, err
		}
		for _, b := range budgets {
			for _, th := range thresholds {
				regions, err := a.StableRegions(b, th)
				if err != nil {
					return nil, err
				}
				sum, err := stats.SummarizeInts(core.RegionLengths(regions))
				if err != nil {
					return nil, err
				}
				res.Cases = append(res.Cases, Fig07Case{
					Benchmark: bench,
					Budget:    b,
					Threshold: th,
					Regions:   len(regions),
					MeanLen:   sum.Mean,
				})
			}
		}
	}
	return res, nil
}

// Table renders the comparison.
func (r *Fig07Result) Table() *report.Table {
	t := report.NewTable("Figure 7 — stable regions vs threshold and budget",
		"benchmark", "budget", "threshold", "regions", "mean length")
	for _, c := range r.Cases {
		t.AddRow(c.Benchmark, BudgetLabel(c.Budget),
			fmt.Sprintf("%.0f%%", c.Threshold*100),
			fmt.Sprintf("%d", c.Regions),
			fmt.Sprintf("%.1f", c.MeanLen))
	}
	return t
}
