package experiments

import (
	"context"
	"fmt"

	"mcdvfs/internal/core"
	"mcdvfs/internal/report"
)

// Fig10Cell is one benchmark's execution time at one budget, normalized to
// its budget-1.0 execution time.
type Fig10Cell struct {
	Benchmark      string
	Budget         float64
	TimeNS         float64
	NormalizedTime float64
}

// Fig10Result reproduces Figure 10: performance variation with the
// inefficiency budget, using the per-sample optimal schedule at each
// budget.
type Fig10Result struct {
	Benchmarks []string
	Budgets    []float64
	Cells      []Fig10Cell
}

// Fig10Budgets returns the budgets of the paper's Figure 10.
func Fig10Budgets() []float64 { return []float64{1.0, 1.1, 1.2, 1.3, 1.6} }

// Fig10 computes the budget-performance sweep.
func (l *Lab) Fig10(ctx context.Context, benches []string, budgets []float64) (*Fig10Result, error) {
	if len(budgets) == 0 || budgets[0] != 1.0 {
		return nil, fmt.Errorf("experiments: Fig10 budgets must start at 1.0 for normalization")
	}
	res := &Fig10Result{Benchmarks: benches, Budgets: budgets}
	for _, bench := range benches {
		a, err := l.AnalysisFor(ctx, l.key(bench, "coarse"))
		if err != nil {
			return nil, err
		}
		base := 0.0
		for i, b := range budgets {
			sch, err := a.OptimalSchedule(b)
			if err != nil {
				return nil, err
			}
			r, err := a.Execute(sch, core.Overhead{})
			if err != nil {
				return nil, err
			}
			if i == 0 {
				base = r.TimeNS
			}
			res.Cells = append(res.Cells, Fig10Cell{
				Benchmark:      bench,
				Budget:         b,
				TimeNS:         r.TimeNS,
				NormalizedTime: r.TimeNS / base,
			})
		}
	}
	return res, nil
}

// Cell returns the entry for (benchmark, budget).
func (r *Fig10Result) Cell(bench string, budget float64) (Fig10Cell, error) {
	for _, c := range r.Cells {
		if c.Benchmark == bench && c.Budget == budget {
			return c, nil
		}
	}
	return Fig10Cell{}, fmt.Errorf("experiments: no Fig10 cell for %s I=%v", bench, budget)
}

// Table renders the normalized execution times.
func (r *Fig10Result) Table() *report.Table {
	cols := []string{"benchmark"}
	for _, b := range r.Budgets {
		cols = append(cols, "I="+BudgetLabel(b))
	}
	t := report.NewTable("Figure 10 — execution time normalized to I=1.0", cols...)
	for _, bench := range r.Benchmarks {
		cells := []string{bench}
		for _, b := range r.Budgets {
			c, err := r.Cell(bench, b)
			if err != nil {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, fmt.Sprintf("%.3f", c.NormalizedTime))
		}
		t.AddRow(cells...)
	}
	return t
}

// Fig11Result reproduces Figure 11: energy-performance trade-offs of the
// stable-region schedule relative to optimal tracking at I=1.3, with and
// without tuning overhead.
type Fig11Result struct {
	Budget     float64
	Thresholds []float64
	Tradeoffs  []core.Tradeoff
	Benchmarks []string
}

// Fig11Thresholds returns the thresholds of the paper's Figure 11.
func Fig11Thresholds() []float64 { return []float64{0.01, 0.03, 0.05} }

// Fig11 computes the trade-off comparison.
func (l *Lab) Fig11(ctx context.Context, benches []string, budget float64, thresholds []float64, oh core.Overhead) (*Fig11Result, error) {
	res := &Fig11Result{Budget: budget, Thresholds: thresholds, Benchmarks: benches}
	for _, bench := range benches {
		a, err := l.AnalysisFor(ctx, l.key(bench, "coarse"))
		if err != nil {
			return nil, err
		}
		for _, th := range thresholds {
			tr, err := a.EvaluateTradeoff(budget, th, oh)
			if err != nil {
				return nil, err
			}
			res.Tradeoffs = append(res.Tradeoffs, tr)
		}
	}
	return res, nil
}

// Table renders the trade-offs. Signs follow the paper's plots: negative
// performance = degradation, negative energy = savings.
func (r *Fig11Result) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Figure 11 — energy-performance trade-offs at I=%s (relative to optimal tracking)", BudgetLabel(r.Budget)),
		"benchmark", "threshold",
		"perf % (no oh)", "energy % (no oh)",
		"perf % (with oh)", "energy % (with oh)",
		"transitions opt->region")
	i := 0
	for _, bench := range r.Benchmarks {
		for range r.Thresholds {
			tr := r.Tradeoffs[i]
			i++
			t.AddRow(bench,
				fmt.Sprintf("%.0f%%", tr.Threshold*100),
				fmt.Sprintf("%+.2f", -tr.PerfDegradationPct),
				fmt.Sprintf("%+.2f", tr.EnergyDeltaPct),
				fmt.Sprintf("%+.2f", -tr.PerfDegradationWithOverheadPct),
				fmt.Sprintf("%+.2f", tr.EnergyDeltaWithOverheadPct),
				fmt.Sprintf("%d -> %d", tr.OptimalTransitions, tr.RegionTransitions))
		}
	}
	return t
}
