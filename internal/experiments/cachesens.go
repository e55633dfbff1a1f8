package experiments

import (
	"context"
	"fmt"

	"mcdvfs/internal/cache"
	"mcdvfs/internal/core"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/report"
	"mcdvfs/internal/workload"
)

// CacheSensRow is one L2 configuration's characterization summary.
type CacheSensRow struct {
	L2Bytes int
	// AvgMPKI is the mean derived DRAM traffic across phases.
	AvgMPKI float64
	// EminJ is the whole-run minimum energy across settings.
	EminJ float64
	// EminSetting is where the minimum sits.
	EminSetting freq.Setting
	// OptimalTimeNS is end-to-end time tracking the optimal at I=1.3.
	OptimalTimeNS float64
	// OptimalMeanMemMHz is the mean memory frequency of that schedule —
	// the knob a shrinking cache pushes upward.
	OptimalMeanMemMHz float64
}

// CacheSensResult studies how on-chip cache sizing reshapes the
// energy-performance trade-off space: a smaller L2 sends more traffic to
// DRAM, raising both Emin and the memory frequency the optimal schedule
// needs. This extends the paper's platform study (its L2 is fixed at 2 MB)
// using the cache substrate.
type CacheSensResult struct {
	Benchmark string
	Budget    float64
	Rows      []CacheSensRow
}

// cacheSensPhases is the locality-specified workload used by the study.
func cacheSensPhases() []workload.LocalityPhase {
	return []workload.LocalityPhase{
		{
			Name: "factorize", Samples: 12, CoreCPI: 0.95,
			Locality:   cache.Locality{APKI: 340, StreamFrac: 0.04, WorkingSetBytes: 900 << 10},
			RowHitRate: 0.60, MLP: 2.2, WriteFrac: 0.30, CPIJitter: 0.03, MPKIJitter: 0.06,
		},
		{
			Name: "price", Samples: 10, CoreCPI: 0.85,
			Locality:   cache.Locality{APKI: 300, StreamFrac: 0.01, WorkingSetBytes: 500 << 10},
			RowHitRate: 0.68, MLP: 2.4, WriteFrac: 0.25, CPIJitter: 0.025, MPKIJitter: 0.06,
		},
	}
}

// CacheSensitivity runs the study across L2 sizes, collecting each derived
// benchmark's grid under ctx.
func (l *Lab) CacheSensitivity(ctx context.Context, budget float64, l2Sizes []int) (*CacheSensResult, error) {
	res := &CacheSensResult{Benchmark: "soplex-like", Budget: budget}
	for _, size := range l2Sizes {
		h := cache.Default().WithL2Size(size)
		bench, err := workload.DeriveBenchmark("soplex-like", "fp", 0x50f1e8, 6, cacheSensPhases(), h)
		if err != nil {
			return nil, err
		}
		g, err := l.CollectWorkload(ctx, bench, "coarse")
		if err != nil {
			return nil, err
		}
		a, err := core.NewAnalysis(g)
		if err != nil {
			return nil, err
		}
		row := CacheSensRow{L2Bytes: size}
		for _, p := range bench.Phases {
			row.AvgMPKI += p.MPKI * float64(p.Samples)
		}
		row.AvgMPKI /= float64(bench.NumSamples() / bench.Repeat)

		id, emin := g.EminSetting()
		row.EminJ, row.EminSetting = emin, g.Setting(id)
		sch, err := a.OptimalSchedule(budget)
		if err != nil {
			return nil, err
		}
		exec, err := a.Execute(sch, core.Overhead{})
		if err != nil {
			return nil, err
		}
		row.OptimalTimeNS = exec.TimeNS
		for _, k := range sch {
			row.OptimalMeanMemMHz += float64(g.Setting(k).Mem)
		}
		row.OptimalMeanMemMHz /= float64(len(sch))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the study.
func (r *CacheSensResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Cache sensitivity — %s under I=%s across L2 sizes", r.Benchmark, BudgetLabel(r.Budget)),
		"L2", "avg MPKI", "Emin (mJ)", "Emin setting", "optimal time (ms)", "mean mem MHz")
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%dKB", row.L2Bytes>>10),
			fmt.Sprintf("%.1f", row.AvgMPKI),
			fmt.Sprintf("%.1f", row.EminJ*1e3),
			row.EminSetting.String(),
			fmt.Sprintf("%.1f", row.OptimalTimeNS/1e6),
			fmt.Sprintf("%.0f", row.OptimalMeanMemMHz),
		)
	}
	return t
}
