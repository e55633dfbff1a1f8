package experiments

import (
	"fmt"

	"mcdvfs/internal/dvfsm"
	"mcdvfs/internal/governor"
	"mcdvfs/internal/report"
	"mcdvfs/internal/workload"
)

// FastDVFSCell is one (hardware, threshold) outcome.
type FastDVFSCell struct {
	Hardware  string
	Threshold float64
	TimeNS    float64
	// OverheadNS is the total governor overhead (search + transitions);
	// TransitionNS isolates the hardware-transition part.
	OverheadNS   float64
	TransitionNS float64
	Transitions  int
}

// FastDVFSResult studies how transition hardware changes the cluster
// trade-off: with commercial PLLs and regulators ("10s of microseconds"
// per transition, per the paper) a governor must tolerate performance
// slack to tune rarely, but with nanosecond-scale integrated regulators
// (the paper's Kim et al. reference) transitions become nearly free and
// tight tracking becomes affordable.
type FastDVFSResult struct {
	Benchmark string
	Budget    float64
	Cells     []FastDVFSCell
}

// FastDVFS runs the comparison.
func (l *Lab) FastDVFS(bench string, budget float64, thresholds []float64) (*FastDVFSResult, error) {
	b, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	specs, err := b.Realize()
	if err != nil {
		return nil, err
	}
	model, err := governor.NewSimModel()
	if err != nil {
		return nil, err
	}
	hardware := []struct {
		name string
		seq  *dvfsm.Sequencer
	}{
		{"commercial", dvfsm.MustNew(dvfsm.DefaultParams())},
		{"on-chip-regulator", dvfsm.MustNew(dvfsm.FastParams())},
	}
	res := &FastDVFSResult{Benchmark: bench, Budget: budget}
	for _, hw := range hardware {
		for _, th := range thresholds {
			gov, err := governor.NewBudget(governor.BudgetConfig{
				Budget: budget, Threshold: th, Space: l.coarse,
				Model: model, Search: governor.FromMax,
			})
			if err != nil {
				return nil, err
			}
			r, err := governor.RunWith(l.sys, specs, gov, governor.DefaultOverhead(), hw.seq)
			if err != nil {
				return nil, fmt.Errorf("experiments: fastdvfs %s th=%v: %w", hw.name, th, err)
			}
			searchNS := float64(r.SettingsSearched) * governor.DefaultOverhead().PerSettingNS
			res.Cells = append(res.Cells, FastDVFSCell{
				Hardware:     hw.name,
				Threshold:    th,
				TimeNS:       r.TimeNS,
				OverheadNS:   r.OverheadNS,
				TransitionNS: r.OverheadNS - searchNS,
				Transitions:  r.Transitions,
			})
		}
	}
	return res, nil
}

// Cell returns the entry for (hardware, threshold).
func (r *FastDVFSResult) Cell(hardware string, threshold float64) (FastDVFSCell, error) {
	for _, c := range r.Cells {
		if c.Hardware == hardware && c.Threshold == threshold {
			return c, nil
		}
	}
	return FastDVFSCell{}, fmt.Errorf("experiments: no fastdvfs cell for %s/%v", hardware, threshold)
}

// Table renders the comparison.
func (r *FastDVFSResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Transition hardware study — %s at I=%s (commercial PLL vs nanosecond on-chip regulator)",
			r.Benchmark, BudgetLabel(r.Budget)),
		"hardware", "threshold", "time (ms)", "transition oh (ms)", "transitions")
	for _, c := range r.Cells {
		t.AddRow(c.Hardware,
			fmt.Sprintf("%.0f%%", c.Threshold*100),
			fmt.Sprintf("%.1f", c.TimeNS/1e6),
			fmt.Sprintf("%.3f", c.TransitionNS/1e6),
			fmt.Sprintf("%d", c.Transitions))
	}
	return t
}
