package experiments

import (
	"context"
	"fmt"

	"mcdvfs/internal/core"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/report"
)

// Fig02Point is one setting's whole-run position in the
// inefficiency-speedup plane.
type Fig02Point struct {
	Setting      freq.Setting
	Inefficiency float64
	Speedup      float64
}

// Fig02Result reproduces Figure 2 for one benchmark: the whole-run
// inefficiency and speedup of every (CPU, memory) setting.
type Fig02Result struct {
	Benchmark string
	Points    []Fig02Point
	// Imax is the largest inefficiency over all settings.
	Imax float64
	// MinSettingIneff and MaxSettingIneff are the inefficiencies of the
	// slowest (min/min) and fastest (max/max) settings, the paper's two
	// headline observations.
	MinSettingIneff float64
	MaxSettingIneff float64
	// BestSpeedup is the highest speedup across settings.
	BestSpeedup float64
}

// Fig02Benchmarks lists the benchmarks shown in the paper's Figure 2.
func Fig02Benchmarks() []string { return []string{"bzip2", "gobmk", "milc"} }

// Fig02 computes the inefficiency-vs-speedup characterization for one
// benchmark.
func (l *Lab) Fig02(ctx context.Context, bench string) (*Fig02Result, error) {
	a, err := l.AnalysisFor(ctx, l.key(bench, "coarse"))
	if err != nil {
		return nil, err
	}
	res := &Fig02Result{Benchmark: bench}
	for k := 0; k < a.NumSettings(); k++ {
		id := freq.SettingID(k)
		p := Fig02Point{
			Setting:      a.Grid().Setting(id),
			Inefficiency: a.RunInefficiency(id),
			Speedup:      a.RunSpeedup(id),
		}
		res.Points = append(res.Points, p)
		if p.Speedup > res.BestSpeedup {
			res.BestSpeedup = p.Speedup
		}
	}
	res.Imax = a.MaxInefficiency()
	minID, ok := l.coarse.ID(l.coarse.Min())
	if !ok {
		return nil, fmt.Errorf("experiments: min setting missing from space")
	}
	maxID, ok := l.coarse.ID(l.coarse.Max())
	if !ok {
		return nil, fmt.Errorf("experiments: max setting missing from space")
	}
	res.MinSettingIneff = a.RunInefficiency(minID)
	res.MaxSettingIneff = a.RunInefficiency(maxID)
	return res, nil
}

// Table renders the characterization as an aligned table, one row per CPU
// frequency with inefficiency/speedup cells per memory frequency.
func (r *Fig02Result) Table(space *freq.Space) *report.Table {
	cols := []string{"cpu"}
	for _, fm := range space.MemLadder() {
		cols = append(cols, fm.String())
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 2 — %s: inefficiency (speedup) per setting; Imax=%.2f", r.Benchmark, r.Imax),
		cols...)
	byCPU := make(map[freq.MHz][]Fig02Point)
	for _, p := range r.Points {
		byCPU[p.Setting.CPU] = append(byCPU[p.Setting.CPU], p)
	}
	for _, fc := range space.CPULadder() {
		cells := []string{fc.String()}
		for _, fm := range space.MemLadder() {
			for _, p := range byCPU[fc] {
				if p.Setting.Mem == fm {
					cells = append(cells, fmt.Sprintf("%.2f (%.2fx)", p.Inefficiency, p.Speedup))
					break
				}
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// Heatmap renders the inefficiency surface as a terminal heatmap: one row
// per CPU frequency (ascending), one column per memory frequency — darker
// is more inefficient, visually matching the paper's Figure 2 panels.
func (r *Fig02Result) Heatmap(space *freq.Space) string {
	var labels []string
	var rows [][]float64
	for _, fc := range space.CPULadder() {
		labels = append(labels, fc.String())
		var row []float64
		for _, fm := range space.MemLadder() {
			for _, p := range r.Points {
				if p.Setting.CPU == fc && p.Setting.Mem == fm {
					row = append(row, p.Inefficiency)
					break
				}
			}
		}
		rows = append(rows, row)
	}
	return report.Heatmap(
		fmt.Sprintf("%s inefficiency heatmap (dark = inefficient; columns = memory %v..%v)",
			r.Benchmark, space.MemLadder()[0], space.MemLadder()[len(space.MemLadder())-1]),
		labels, rows)
}

// Fig03Row is one sample's optimal settings across budgets, with the
// workload's CPI and MPKI at the reference setting.
type Fig03Row struct {
	Sample  int
	CPI     float64
	MPKI    float64
	Optimal map[string]freq.Setting // keyed by budget label
}

// Fig03Result reproduces Figure 3: the per-sample optimal performance
// point across inefficiency budgets for gobmk.
type Fig03Result struct {
	Benchmark string
	Budgets   []float64
	Labels    []string
	Rows      []Fig03Row
	// TransitionsPerBudget counts optimal-schedule transitions per budget
	// label.
	TransitionsPerBudget map[string]int
}

// Fig03Budgets returns the budgets shown in the paper's Figure 3.
func Fig03Budgets() []float64 { return []float64{1, 1.3, 1.6, core.Unconstrained} }

// BudgetLabel formats a budget the way the paper's figures do.
func BudgetLabel(b float64) string {
	if b == core.Unconstrained {
		return "inf"
	}
	return fmt.Sprintf("%.1f", b)
}

// Fig03 computes the optimal trajectory for a benchmark across budgets.
func (l *Lab) Fig03(ctx context.Context, bench string, budgets []float64) (*Fig03Result, error) {
	a, err := l.AnalysisFor(ctx, l.key(bench, "coarse"))
	if err != nil {
		return nil, err
	}
	res := &Fig03Result{
		Benchmark:            bench,
		Budgets:              budgets,
		TransitionsPerBudget: make(map[string]int),
	}
	for _, b := range budgets {
		res.Labels = append(res.Labels, BudgetLabel(b))
	}
	// Reference setting for the CPI/MPKI traces: the maximum setting, as
	// the paper's CPI plot comes from the unconstrained run.
	refID, ok := l.coarse.ID(l.coarse.Max())
	if !ok {
		return nil, fmt.Errorf("experiments: max setting missing from space")
	}
	schedules := make(map[string]core.Schedule)
	for i, b := range budgets {
		sch, err := a.OptimalSchedule(b)
		if err != nil {
			return nil, err
		}
		schedules[res.Labels[i]] = sch
		res.TransitionsPerBudget[res.Labels[i]] = sch.Transitions()
	}
	for s := 0; s < a.NumSamples(); s++ {
		m := a.Grid().At(s, refID)
		row := Fig03Row{Sample: s, CPI: m.CPI, MPKI: m.MPKI, Optimal: make(map[string]freq.Setting)}
		for _, label := range res.Labels {
			row.Optimal[label] = a.Grid().Setting(schedules[label][s])
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Plot renders the Figure 3 trajectories as sparklines: the workload's
// CPI/MPKI traces and, per budget, the chosen CPU and memory frequencies —
// the same four stacked series the paper plots.
func (r *Fig03Result) Plot() string {
	var b []byte
	appendLine := func(label, spark string) {
		b = append(b, fmt.Sprintf("%-12s %s\n", label, spark)...)
	}
	series := func(f func(Fig03Row) float64) []float64 {
		out := make([]float64, len(r.Rows))
		for i, row := range r.Rows {
			out[i] = f(row)
		}
		return out
	}
	appendLine("cpi", report.Sparkline(series(func(row Fig03Row) float64 { return row.CPI })))
	appendLine("mpki", report.Sparkline(series(func(row Fig03Row) float64 { return row.MPKI })))
	for _, label := range r.Labels {
		l := label
		appendLine("cpu@I="+l, report.Sparkline(series(func(row Fig03Row) float64 { return float64(row.Optimal[l].CPU) })))
		appendLine("mem@I="+l, report.Sparkline(series(func(row Fig03Row) float64 { return float64(row.Optimal[l].Mem) })))
	}
	return string(b)
}

// Table renders the optimal trajectory.
func (r *Fig03Result) Table() *report.Table {
	cols := []string{"sample", "cpi", "mpki"}
	for _, l := range r.Labels {
		cols = append(cols, "I="+l)
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 3 — %s: optimal setting per sample across inefficiency budgets", r.Benchmark),
		cols...)
	for _, row := range r.Rows {
		cells := []string{
			fmt.Sprintf("%d", row.Sample),
			fmt.Sprintf("%.2f", row.CPI),
			fmt.Sprintf("%.1f", row.MPKI),
		}
		for _, l := range r.Labels {
			cells = append(cells, row.Optimal[l].String())
		}
		t.AddRow(cells...)
	}
	return t
}
