package experiments

import (
	"context"
	"fmt"

	"mcdvfs/internal/dram"
	"mcdvfs/internal/report"
)

// LowPowerRow is one benchmark's memory power-down opportunity.
type LowPowerRow struct {
	Benchmark string
	// AccessPerNS is the mean memory access rate (accesses/ns) over the
	// optimal schedule at the study's budget.
	AccessPerNS float64
	// SystemSavingsPct is the whole-system energy saving the power-down
	// policy recovers from the clocked memory background.
	SystemSavingsPct float64
}

// LowPowerResult quantifies MemScale-style memory power-down (the paper's
// reference [11]) on top of the budgeted schedules: how much background
// energy the gaps between DRAM accesses can recover per workload.
type LowPowerResult struct {
	Budget float64
	Policy dram.PowerDown
	Rows   []LowPowerRow
}

// LowPower runs the study at the given budget on the lab's memory device,
// whose background power sets what a power-down can recover.
func (l *Lab) LowPower(ctx context.Context, benches []string, budget float64) (*LowPowerResult, error) {
	pd := dram.DefaultPowerDown()
	dev := l.cfg.Device
	em, err := dram.NewEnergyModel(dev)
	if err != nil {
		return nil, err
	}
	res := &LowPowerResult{Budget: budget, Policy: pd}
	for _, bench := range benches {
		a, err := l.AnalysisFor(ctx, l.key(bench, "coarse"))
		if err != nil {
			return nil, err
		}
		sch, err := a.OptimalSchedule(budget)
		if err != nil {
			return nil, err
		}
		g := a.Grid()
		var totalTime, totalEnergy, totalAccesses, savedJ float64
		for s, k := range sch {
			m := g.At(s, k)
			accesses := float64(g.SampleInstr) * m.MPKI / 1000
			rate := 0.0
			if m.TimeNS > 0 {
				rate = accesses / m.TimeNS
			}
			frac, err := em.IdleSavings(pd, rate)
			if err != nil {
				return nil, err
			}
			clockedW := dev.PBgClockedW * float64(g.Setting(k).Mem/dev.FMax)
			savedJ += clockedW * frac * m.TimeNS * 1e-9
			totalTime += m.TimeNS
			totalEnergy += m.EnergyJ()
			totalAccesses += accesses
		}
		res.Rows = append(res.Rows, LowPowerRow{
			Benchmark:        bench,
			AccessPerNS:      totalAccesses / totalTime,
			SystemSavingsPct: savedJ / totalEnergy * 100,
		})
	}
	return res, nil
}

// Row returns the entry for a benchmark.
func (r *LowPowerResult) Row(bench string) (LowPowerRow, error) {
	for _, row := range r.Rows {
		if row.Benchmark == bench {
			return row, nil
		}
	}
	return LowPowerRow{}, fmt.Errorf("experiments: no lowpower row for %s", bench)
}

// Table renders the study.
func (r *LowPowerResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Memory power-down opportunity at I=%s (MemScale-style fast power-down)", BudgetLabel(r.Budget)),
		"benchmark", "accesses/µs", "system energy saving")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark,
			fmt.Sprintf("%.1f", row.AccessPerNS*1e3),
			fmt.Sprintf("%.2f%%", row.SystemSavingsPct))
	}
	return t
}
