package experiments

// Tests that the experiments which look past the Lab's cached grids — the
// power-down study's device, the LITTLE core's platform, the governors'
// model of candidate settings, and the grids Hetero and CacheSensitivity
// collect for themselves — still use the platform the Lab was built with,
// its collection path and the caller's context.

import (
	"context"
	"math"
	"sync"
	"testing"

	"mcdvfs/internal/core"
	"mcdvfs/internal/cpupower"
	"mcdvfs/internal/dram"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/governor"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

// TestLowPowerUsesLabDevice prices power-down on a device with twice the
// default clocked background power: every row must match the saving
// recomputed from the lab's own grid and device.
func TestLowPowerUsesLabDevice(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Device.PBgClockedW *= 2
	l, err := NewLabWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1.3
	benches := []string{"bzip2", "lbm"}
	r, err := l.LowPower(context.Background(), benches, budget)
	if err != nil {
		t.Fatal(err)
	}
	em, err := dram.NewEnergyModel(cfg.Device)
	if err != nil {
		t.Fatal(err)
	}
	pd := dram.DefaultPowerDown()
	for _, bench := range benches {
		a, err := l.AnalysisFor(context.Background(), l.key(bench, "coarse"))
		if err != nil {
			t.Fatal(err)
		}
		sch, err := a.OptimalSchedule(budget)
		if err != nil {
			t.Fatal(err)
		}
		g := a.Grid()
		var savedJ, energyJ float64
		for s, k := range sch {
			m := g.At(s, k)
			frac, err := em.IdleSavings(pd, float64(g.SampleInstr)*m.MPKI/1000/m.TimeNS)
			if err != nil {
				t.Fatal(err)
			}
			clockedW := cfg.Device.PBgClockedW * float64(g.Setting(k).Mem/cfg.Device.FMax)
			savedJ += clockedW * frac * m.TimeNS * 1e-9
			energyJ += m.EnergyJ()
		}
		row, err := r.Row(bench)
		if err != nil {
			t.Fatal(err)
		}
		if want := savedJ / energyJ * 100; row.SystemSavingsPct != want {
			t.Errorf("%s: system saving %.4f%%, want %.4f%% on the lab's device", bench, row.SystemSavingsPct, want)
		}
	}
}

// TestGovCompareModelsLabPlatform runs GovCompare on a lab whose core needs
// 1.5x the default CPI: its from-max budget governor must predict with
// that platform's model, so its row is a direct governor run on the lab's
// system with NewSimModel(cfg). A model of the default platform misjudges
// every candidate there and makes the run overshoot its 1.3 budget.
func TestGovCompareModelsLabPlatform(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.CPIFactor = 1.5
	l, err := NewLabWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const budget, threshold = 1.3, 0.03
	r, err := l.GovCompare(context.Background(), "gobmk", budget, threshold)
	if err != nil {
		t.Fatal(err)
	}
	row, err := r.Row("from-max)")
	if err != nil {
		t.Fatal(err)
	}
	model, err := governor.NewSimModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gov, err := governor.NewBudget(governor.BudgetConfig{
		Budget: budget, Threshold: threshold, Space: l.CoarseSpace(), Model: model, Search: governor.FromMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := governor.Run(l.sys, workload.MustByName("gobmk").MustRealize(), gov, governor.DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	if row.TimeNS != want.TimeNS || row.EnergyJ != want.EnergyJ || row.Transitions != want.Transitions {
		t.Errorf("from-max row: %.6g ns, %.6g J, %d transitions; want %.6g ns, %.6g J, %d transitions from the lab's platform model",
			row.TimeNS, row.EnergyJ, row.Transitions, want.TimeNS, want.EnergyJ, want.Transitions)
	}
}

// TestHeteroLittleCoreSharesLabPlatform runs Hetero on a noiseless lab:
// unconstrained, the LITTLE core's time must be the fastest pinned time
// of the LITTLE grid collected from that same noiseless platform.
func TestHeteroLittleCoreSharesLabPlatform(t *testing.T) {
	l, err := NewLabWithConfig(sim.NoiselessConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := l.Hetero(context.Background(), []string{"gobmk"}, []float64{core.Unconstrained})
	if err != nil {
		t.Fatal(err)
	}
	cell, err := r.Cell("gobmk", core.Unconstrained)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.NoiselessConfig()
	cfg.CPUPower = cpupower.LittleParams()
	cfg.CPIFactor = littleCPIFactor
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.Collect(sys, workload.MustByName("gobmk"), littleSpace())
	if err != nil {
		t.Fatal(err)
	}
	fastest := math.Inf(1)
	for k := range g.Settings {
		fastest = math.Min(fastest, g.TotalTimeNS(freq.SettingID(k)))
	}
	if cell.LittleTimeNS != fastest {
		t.Errorf("LITTLE time %.6g ns, want %.6g ns from the lab's noiseless platform", cell.LittleTimeNS, fastest)
	}
}

// TestExperimentCollectionsTakeLabPath records every collection a
// one-worker lab runs: the LITTLE grid Hetero collects and the derived
// benchmark CacheSensitivity collects must both reach the lab's collect
// hook, at the lab's worker bound and under the caller's context, so
// cancelling the caller stops them.
func TestExperimentCollectionsTakeLabPath(t *testing.T) {
	l, err := NewLab(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	type callerKey struct{}
	ctx := context.WithValue(context.Background(), callerKey{}, "caller")
	type call struct {
		bench             string
		settings, workers int
		caller            bool
	}
	var (
		mu    sync.Mutex
		calls []call
	)
	inner := l.collect
	l.collect = func(cctx context.Context, sys *sim.System, b workload.Benchmark, space *freq.Space, o trace.CollectOptions) (*trace.Grid, error) {
		mu.Lock()
		calls = append(calls, call{b.Name, space.Len(), o.Workers, cctx.Value(callerKey{}) == "caller"})
		mu.Unlock()
		return inner(cctx, sys, b, space, o)
	}
	if _, err := l.Hetero(ctx, []string{"gobmk"}, []float64{core.Unconstrained}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.CacheSensitivity(ctx, 1.3, []int{1 << 20}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	seen := map[call]bool{
		{"gobmk", littleSpace().Len(), 1, true}:         false,
		{"soplex-like", l.CoarseSpace().Len(), 1, true}: false,
	}
	for _, c := range calls {
		if c.workers != 1 {
			t.Errorf("%s over %d settings collected with %d workers, want the lab's 1", c.bench, c.settings, c.workers)
		}
		if !c.caller {
			t.Errorf("%s over %d settings collected under a context other than the caller's", c.bench, c.settings)
		}
		if _, ok := seen[c]; ok {
			seen[c] = true
		}
	}
	for c, ok := range seen {
		if !ok {
			t.Errorf("no %s collection over %d settings reached the lab's collect hook; got %v", c.bench, c.settings, calls)
		}
	}
}
