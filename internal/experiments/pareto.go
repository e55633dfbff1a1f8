package experiments

import (
	"context"
	"fmt"

	"mcdvfs/internal/core"
	"mcdvfs/internal/report"
)

// ParetoResult lists each benchmark's whole-run energy-performance
// frontier: the set of settings a smart algorithm should confine its
// search to (Section IV: "smart algorithms should search for optimal
// points under the inefficiency constraint and not just at the
// constraint").
type ParetoResult struct {
	Benchmark string
	Frontier  []core.ParetoPoint
	Total     int // settings in the space
	Labels    []string
}

// Pareto computes the frontier for one benchmark.
func (l *Lab) Pareto(ctx context.Context, bench string) (*ParetoResult, error) {
	a, err := l.AnalysisFor(ctx, l.key(bench, "coarse"))
	if err != nil {
		return nil, err
	}
	res := &ParetoResult{
		Benchmark: bench,
		Frontier:  a.ParetoFrontier(),
		Total:     a.NumSettings(),
	}
	for _, p := range res.Frontier {
		res.Labels = append(res.Labels, a.Grid().Setting(p.Setting).String())
	}
	return res, nil
}

// Table renders the frontier.
func (r *ParetoResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Energy-performance Pareto frontier — %s (%d of %d settings non-dominated)",
			r.Benchmark, len(r.Frontier), r.Total),
		"setting", "speedup", "inefficiency", "time (ms)", "energy (mJ)")
	for i, p := range r.Frontier {
		t.AddRow(r.Labels[i],
			fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%.2f", p.Inefficiency),
			fmt.Sprintf("%.1f", p.TimeNS/1e6),
			fmt.Sprintf("%.1f", p.EnergyJ*1e3))
	}
	return t
}
