package experiments

import (
	"context"
	"fmt"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/report"
	"mcdvfs/internal/workload"
)

// ImaxRow is one benchmark's inefficiency bounds (paper Section II-A).
type ImaxRow struct {
	Benchmark string
	Class     string
	// Imax is the unbounded-budget inefficiency ceiling.
	Imax float64
	// ImaxSetting is the setting where the worst inefficiency occurs.
	ImaxSetting freq.Setting
	// FastestIneff is the inefficiency of the max/max setting.
	FastestIneff float64
	// SlowestIneff is the inefficiency of the min/min setting.
	SlowestIneff float64
	// EminSetting is where the whole-run energy minimum sits.
	EminSetting freq.Setting
}

// ImaxResult surveys the inefficiency bounds across the entire benchmark
// suite — the paper reports the 1.5–2 range for its SPEC selection and
// argues the absolute value of Imax is irrelevant to budget setting; this
// experiment makes the population visible.
type ImaxResult struct {
	Rows []ImaxRow
}

// ImaxSurvey characterizes every registered benchmark.
func (l *Lab) ImaxSurvey(ctx context.Context) (*ImaxResult, error) {
	res := &ImaxResult{}
	minID, ok := l.coarse.ID(l.coarse.Min())
	if !ok {
		return nil, fmt.Errorf("experiments: min setting missing")
	}
	maxID, ok := l.coarse.ID(l.coarse.Max())
	if !ok {
		return nil, fmt.Errorf("experiments: max setting missing")
	}
	for _, name := range workload.Names() {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		a, err := l.AnalysisFor(ctx, l.key(name, "coarse"))
		if err != nil {
			return nil, err
		}
		row := ImaxRow{Benchmark: name, Class: b.Class}
		var eminJ float64 = -1
		for k := 0; k < a.NumSettings(); k++ {
			id := freq.SettingID(k)
			if i := a.RunInefficiency(id); i > row.Imax {
				row.Imax = i
				row.ImaxSetting = a.Grid().Setting(id)
			}
			if e := a.PinnedResult(id).EnergyJ; eminJ < 0 || e < eminJ {
				eminJ = e
				row.EminSetting = a.Grid().Setting(id)
			}
		}
		row.FastestIneff = a.RunInefficiency(maxID)
		row.SlowestIneff = a.RunInefficiency(minID)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Row returns the entry for a benchmark.
func (r *ImaxResult) Row(bench string) (ImaxRow, error) {
	for _, row := range r.Rows {
		if row.Benchmark == bench {
			return row, nil
		}
	}
	return ImaxRow{}, fmt.Errorf("experiments: no imax row for %s", bench)
}

// Table renders the survey.
func (r *ImaxResult) Table() *report.Table {
	t := report.NewTable("Inefficiency bounds across the suite (paper Section II-A)",
		"benchmark", "class", "Imax", "at", "I(fastest)", "I(slowest)", "Emin setting")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, row.Class,
			fmt.Sprintf("%.2f", row.Imax),
			row.ImaxSetting.String(),
			fmt.Sprintf("%.2f", row.FastestIneff),
			fmt.Sprintf("%.2f", row.SlowestIneff),
			row.EminSetting.String())
	}
	return t
}
