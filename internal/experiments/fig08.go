package experiments

import (
	"fmt"

	"mcdvfs/internal/core"
	"mcdvfs/internal/report"
	"mcdvfs/internal/stats"
)

// Fig08Cell is the transition rate for one (benchmark, budget, threshold).
type Fig08Cell struct {
	Benchmark string
	Budget    float64
	// Threshold < 0 encodes the "optimal tracking" column.
	Threshold             float64
	TransitionsPerBillion float64
}

// OptimalTracking marks the Figure 8 column where the system follows the
// per-sample optimal settings instead of a cluster schedule.
const OptimalTracking = -1.0

// Fig08Result reproduces Figure 8: transitions per billion instructions
// across benchmarks, budgets, and cluster thresholds.
type Fig08Result struct {
	Benchmarks []string
	Budgets    []float64
	Thresholds []float64 // includes OptimalTracking
	Cells      []Fig08Cell
}

// Fig08Budgets returns the budgets of the paper's Figure 8.
func Fig08Budgets() []float64 { return []float64{1.0, 1.3, 1.6} }

// Fig08Thresholds returns the threshold columns of Figure 8.
func Fig08Thresholds() []float64 { return []float64{OptimalTracking, 0.01, 0.03, 0.05} }

// Fig08 computes the transition-rate matrix.
func (l *Lab) Fig08(benches []string, budgets, thresholds []float64) (*Fig08Result, error) {
	res := &Fig08Result{Benchmarks: benches, Budgets: budgets, Thresholds: thresholds}
	for _, bench := range benches {
		a, err := l.Analysis(bench)
		if err != nil {
			return nil, err
		}
		for _, b := range budgets {
			for _, th := range thresholds {
				var transitions int
				if th == OptimalTracking {
					sch, err := a.OptimalSchedule(b)
					if err != nil {
						return nil, err
					}
					transitions = sch.Transitions()
				} else {
					regions, err := a.StableRegions(b, th)
					if err != nil {
						return nil, err
					}
					transitions = len(regions) - 1
				}
				res.Cells = append(res.Cells, Fig08Cell{
					Benchmark:             bench,
					Budget:                b,
					Threshold:             th,
					TransitionsPerBillion: a.TransitionsPerBillion(transitions),
				})
			}
		}
	}
	return res, nil
}

// Rate returns the cell value for a (benchmark, budget, threshold), or an
// error if the combination was not computed.
func (r *Fig08Result) Rate(bench string, budget, threshold float64) (float64, error) {
	for _, c := range r.Cells {
		if c.Benchmark == bench && c.Budget == budget && c.Threshold == threshold {
			return c.TransitionsPerBillion, nil
		}
	}
	return 0, fmt.Errorf("experiments: no Fig08 cell for %s I=%v th=%v", bench, budget, threshold)
}

// Table renders one sub-figure (one budget) of Figure 8.
func (r *Fig08Result) Table(budget float64) *report.Table {
	cols := []string{"benchmark"}
	for _, th := range r.Thresholds {
		if th == OptimalTracking {
			cols = append(cols, "optimal")
		} else {
			cols = append(cols, fmt.Sprintf("%.0f%%", th*100))
		}
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 8 — transitions per billion instructions (I=%s)", BudgetLabel(budget)),
		cols...)
	for _, bench := range r.Benchmarks {
		cells := []string{bench}
		for _, th := range r.Thresholds {
			rate, err := r.Rate(bench, budget, th)
			if err != nil {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, fmt.Sprintf("%.1f", rate))
		}
		t.AddRow(cells...)
	}
	return t
}

// Fig09Box is one box of Figure 9: the distribution of stable-region
// lengths for one (benchmark, budget, threshold).
type Fig09Box struct {
	Benchmark string
	Budget    float64
	Threshold float64
	Summary   stats.Summary
}

// Fig09Result reproduces Figure 9: distributions of stable-region lengths.
type Fig09Result struct {
	Boxes []Fig09Box
}

// Fig09 computes region-length distributions for the cross product of the
// given benchmarks, budgets, and thresholds.
func (l *Lab) Fig09(benches []string, budgets, thresholds []float64) (*Fig09Result, error) {
	res := &Fig09Result{}
	for _, bench := range benches {
		a, err := l.Analysis(bench)
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
				res.Boxes = append(res.Boxes, Fig09Box{
					Benchmark: bench, Budget: b, Threshold: th, Summary: sum,
				})
			}
		}
	}
	return res, nil
}

// Box returns the summary for a (benchmark, budget, threshold).
func (r *Fig09Result) Box(bench string, budget, threshold float64) (stats.Summary, error) {
	for _, b := range r.Boxes {
		if b.Benchmark == bench && b.Budget == budget && b.Threshold == threshold {
			return b.Summary, nil
		}
	}
	return stats.Summary{}, fmt.Errorf("experiments: no Fig09 box for %s I=%v th=%v", bench, budget, threshold)
}

// Table renders the distributions.
func (r *Fig09Result) Table(title string) *report.Table {
	t := report.NewTable(title,
		"benchmark", "budget", "threshold", "min", "q1", "median", "q3", "max", "mean", "n")
	for _, b := range r.Boxes {
		s := b.Summary
		t.AddRow(b.Benchmark, BudgetLabel(b.Budget),
			fmt.Sprintf("%.0f%%", b.Threshold*100),
			fmt.Sprintf("%.0f", s.Min), fmt.Sprintf("%.1f", s.Q1),
			fmt.Sprintf("%.1f", s.Median), fmt.Sprintf("%.1f", s.Q3),
			fmt.Sprintf("%.0f", s.Max), fmt.Sprintf("%.1f", s.Mean),
			fmt.Sprintf("%d", s.N))
	}
	return t
}
