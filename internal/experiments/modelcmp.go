package experiments

import (
	"context"
	"fmt"

	"mcdvfs/internal/governor"
	"mcdvfs/internal/model"
	"mcdvfs/internal/report"
	"mcdvfs/internal/workload"
)

// ModelCmpRow is one (model, benchmark) outcome.
type ModelCmpRow struct {
	Benchmark    string
	Model        string
	TimeNS       float64
	EnergyJ      float64
	Inefficiency float64
	Transitions  int
}

// ModelCmpResult compares the budget governor driven by the perfect
// (oracle) component model against the online-learned cross-component
// model — the predictive models the paper defers to future work, made
// runnable and measured.
type ModelCmpResult struct {
	Budget    float64
	Threshold float64
	Rows      []ModelCmpRow
}

// ModelCompare runs the comparison on the given benchmarks.
func (l *Lab) ModelCompare(ctx context.Context, benches []string, budget, threshold float64) (*ModelCmpResult, error) {
	res := &ModelCmpResult{Budget: budget, Threshold: threshold}
	for _, bench := range benches {
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

		oracle, err := governor.NewSimModel(l.cfg)
		if err != nil {
			return nil, err
		}
		learned, err := model.New(model.Config{CPUPower: l.cfg.CPUPower, Device: l.cfg.Device})
		if err != nil {
			return nil, err
		}
		for _, m := range []struct {
			name string
			mdl  governor.Model
		}{
			{"oracle", oracle},
			{"learned", learned},
		} {
			gov, err := governor.NewBudget(governor.BudgetConfig{
				Budget:    budget,
				Threshold: threshold,
				Space:     l.coarse,
				Model:     m.mdl,
				Search:    governor.FromMax,
			})
			if err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := governor.Run(l.sys, specs, gov, governor.DefaultOverhead())
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", bench, m.name, err)
			}
			res.Rows = append(res.Rows, ModelCmpRow{
				Benchmark:    bench,
				Model:        m.name,
				TimeNS:       r.TimeNS,
				EnergyJ:      r.EnergyJ,
				Inefficiency: r.EnergyJ / eminRun,
				Transitions:  r.Transitions,
			})
		}
	}
	return res, nil
}

// Row returns the entry for (benchmark, model).
func (r *ModelCmpResult) Row(bench, mdl string) (ModelCmpRow, error) {
	for _, row := range r.Rows {
		if row.Benchmark == bench && row.Model == mdl {
			return row, nil
		}
	}
	return ModelCmpRow{}, fmt.Errorf("experiments: no modelcmp row for %s/%s", bench, mdl)
}

// Table renders the comparison.
func (r *ModelCmpResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Predictive-model comparison — budget governor at I=%s, threshold %.0f%% (paper future work §VIII)",
			BudgetLabel(r.Budget), r.Threshold*100),
		"benchmark", "model", "time (ms)", "energy (mJ)", "ineff", "transitions")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, row.Model,
			fmt.Sprintf("%.1f", row.TimeNS/1e6),
			fmt.Sprintf("%.1f", row.EnergyJ*1e3),
			fmt.Sprintf("%.2f", row.Inefficiency),
			fmt.Sprintf("%d", row.Transitions))
	}
	return t
}
