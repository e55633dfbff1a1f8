package experiments

import (
	"context"
	"fmt"
	"strings"

	"mcdvfs/internal/governor"
	"mcdvfs/internal/report"
	"mcdvfs/internal/workload"
)

// BaselineRow is one policy's end-to-end outcome.
type BaselineRow struct {
	Policy       string
	TimeNS       float64
	EnergyJ      float64
	Inefficiency float64
	Transitions  int
}

// BaselinesResult compares the inefficiency-budget governor against the
// energy-management baselines the paper's Section II argues are unsuitable
// for energy-constrained mobile devices: absolute-energy rate limiting
// (Cinder/ECOSystem style) and energy-delay-product minimization.
type BaselinesResult struct {
	Benchmark string
	Budget    float64
	Rows      []BaselineRow
}

// Baselines runs the comparison. The rate limiter's per-interval allowance
// is set to the budget governor's average interval energy — the most
// favorable calibration it could hope for — and still loses.
func (l *Lab) Baselines(ctx context.Context, bench string, budget float64) (*BaselinesResult, error) {
	b, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	specs, err := b.Realize()
	if err != nil {
		return nil, err
	}
	g, err := l.GridFor(ctx, l.key(bench, "coarse"))
	if err != nil {
		return nil, err
	}
	_, eminRun := g.EminSetting()
	model, err := governor.NewSimModel(l.cfg)
	if err != nil {
		return nil, err
	}

	budgetGov, err := governor.NewBudget(governor.BudgetConfig{
		Budget: budget, Threshold: 0.03, Space: l.coarse, Model: model,
		Search: governor.FromMax,
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rBudget, err := governor.Run(l.sys, specs, budgetGov, governor.DefaultOverhead())
	if err != nil {
		return nil, err
	}

	rateLimiter, err := governor.NewRateLimiter(l.coarse, rBudget.EnergyJ/float64(len(specs)))
	if err != nil {
		return nil, err
	}
	edp, err := governor.NewEDP(l.coarse, model, 1)
	if err != nil {
		return nil, err
	}
	ed2p, err := governor.NewEDP(l.coarse, model, 2)
	if err != nil {
		return nil, err
	}

	res := &BaselinesResult{Benchmark: bench, Budget: budget}
	add := func(r governor.Result) {
		res.Rows = append(res.Rows, BaselineRow{
			Policy:       r.Governor,
			TimeNS:       r.TimeNS,
			EnergyJ:      r.EnergyJ,
			Inefficiency: r.EnergyJ / eminRun,
			Transitions:  r.Transitions,
		})
	}
	add(rBudget)
	for _, gv := range []governor.Governor{rateLimiter, edp, ed2p} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := governor.Run(l.sys, specs, gv, governor.DefaultOverhead())
		if err != nil {
			return nil, fmt.Errorf("experiments: baseline %s: %w", gv.Name(), err)
		}
		add(r)
	}
	return res, nil
}

// Row returns the entry whose policy name contains the substring.
func (r *BaselinesResult) Row(nameContains string) (BaselineRow, error) {
	for _, row := range r.Rows {
		if strings.Contains(row.Policy, nameContains) {
			return row, nil
		}
	}
	return BaselineRow{}, fmt.Errorf("experiments: no baseline row matching %q", nameContains)
}

// Table renders the comparison.
func (r *BaselinesResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Energy-management baselines — %s (budget governor at I=%s)", r.Benchmark, BudgetLabel(r.Budget)),
		"policy", "time (ms)", "energy (mJ)", "ineff", "transitions")
	for _, row := range r.Rows {
		t.AddRow(row.Policy,
			fmt.Sprintf("%.1f", row.TimeNS/1e6),
			fmt.Sprintf("%.1f", row.EnergyJ*1e3),
			fmt.Sprintf("%.2f", row.Inefficiency),
			fmt.Sprintf("%d", row.Transitions))
	}
	return t
}
