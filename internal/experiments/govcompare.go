package experiments

import (
	"fmt"
	"strings"

	"mcdvfs/internal/governor"
	"mcdvfs/internal/report"
	"mcdvfs/internal/workload"
)

// GovRow is one governor's end-to-end outcome on a benchmark.
type GovRow struct {
	Governor        string
	TimeNS          float64
	EnergyJ         float64
	Inefficiency    float64 // achieved whole-run inefficiency vs brute-force Emin
	Transitions     int
	Tunes           int
	SettingsPerTune float64
	OverheadNS      float64
}

// GovCompareResult is the online-governor comparison the paper's Section
// VII motivates: static governors, the CoScale-style restart-from-max
// search, the paper-inspired start-from-previous search, and the
// stability-predicting variant, all under the same inefficiency budget.
type GovCompareResult struct {
	Benchmark string
	Budget    float64
	Threshold float64
	Rows      []GovRow
}

// GovCompare runs the governor suite on one benchmark.
func (l *Lab) GovCompare(bench string, budget, threshold float64) (*GovCompareResult, error) {
	b, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	specs, err := b.Realize()
	if err != nil {
		return nil, err
	}
	// Whole-run Emin reference: cheapest pinned setting from the grid.
	g, err := l.Grid(bench)
	if err != nil {
		return nil, err
	}
	_, eminRun := g.EminSetting()

	model, err := governor.NewSimModel()
	if err != nil {
		return nil, err
	}
	mk := func(search governor.SearchStart, stability bool) (*governor.Budget, error) {
		return governor.NewBudget(governor.BudgetConfig{
			Budget:         budget,
			Threshold:      threshold,
			Space:          l.coarse,
			Model:          model,
			Search:         search,
			UseStability:   stability,
			DriftTolerance: 0.25,
		})
	}
	fromMax, err := mk(governor.FromMax, false)
	if err != nil {
		return nil, err
	}
	fromPrev, err := mk(governor.FromPrevious, false)
	if err != nil {
		return nil, err
	}
	stab, err := mk(governor.FromMax, true)
	if err != nil {
		return nil, err
	}
	ondemand, err := governor.NewOnDemand(l.coarse)
	if err != nil {
		return nil, err
	}
	govs := []governor.Governor{
		governor.NewPerformance(l.coarse),
		governor.NewPowersave(l.coarse),
		ondemand,
		fromMax,
		fromPrev,
		stab,
	}
	res := &GovCompareResult{Benchmark: bench, Budget: budget, Threshold: threshold}
	for _, gv := range govs {
		r, err := governor.Run(l.sys, specs, gv, governor.DefaultOverhead())
		if err != nil {
			return nil, fmt.Errorf("experiments: governor %s: %w", gv.Name(), err)
		}
		res.Rows = append(res.Rows, GovRow{
			Governor:        r.Governor,
			TimeNS:          r.TimeNS,
			EnergyJ:         r.EnergyJ,
			Inefficiency:    r.EnergyJ / eminRun,
			Transitions:     r.Transitions,
			Tunes:           r.Tunes,
			SettingsPerTune: r.AvgSearchedPerTune(),
			OverheadNS:      r.OverheadNS,
		})
	}
	return res, nil
}

// Row returns the entry whose governor name contains the given substring.
func (r *GovCompareResult) Row(nameContains string) (GovRow, error) {
	for _, row := range r.Rows {
		if strings.Contains(row.Governor, nameContains) {
			return row, nil
		}
	}
	return GovRow{}, fmt.Errorf("experiments: no governor row matching %q", nameContains)
}

// Table renders the comparison.
func (r *GovCompareResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Governor comparison — %s (I=%s, threshold %.0f%%)", r.Benchmark, BudgetLabel(r.Budget), r.Threshold*100),
		"governor", "time (ms)", "energy (mJ)", "ineff", "transitions", "tunes", "settings/tune", "overhead (ms)")
	for _, row := range r.Rows {
		t.AddRow(row.Governor,
			fmt.Sprintf("%.1f", row.TimeNS/1e6),
			fmt.Sprintf("%.1f", row.EnergyJ*1e3),
			fmt.Sprintf("%.2f", row.Inefficiency),
			fmt.Sprintf("%d", row.Transitions),
			fmt.Sprintf("%d", row.Tunes),
			fmt.Sprintf("%.1f", row.SettingsPerTune),
			fmt.Sprintf("%.2f", row.OverheadNS/1e6))
	}
	return t
}
