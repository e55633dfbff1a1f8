package experiments

// Tests that the experiments which look past the Lab's cached grids — the
// power-down study's device, the LITTLE core's platform, and the grids
// Hetero and CacheSensitivity collect for themselves — still use the
// platform the Lab was built with and its collection path.

import (
	"context"
	"math"
	"sync"
	"testing"

	"mcdvfs/internal/core"
	"mcdvfs/internal/cpupower"
	"mcdvfs/internal/dram"
	"mcdvfs/internal/freq"
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
	r, err := l.LowPower(benches, budget)
	if err != nil {
		t.Fatal(err)
	}
	em, err := dram.NewEnergyModel(cfg.Device)
	if err != nil {
		t.Fatal(err)
	}
	pd := dram.DefaultPowerDown()
	for _, bench := range benches {
		a, err := l.Analysis(bench)
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

// TestHeteroLittleCoreSharesLabPlatform runs Hetero on a noiseless lab:
// unconstrained, the LITTLE core's time must be the fastest pinned time
// of the LITTLE grid collected from that same noiseless platform.
func TestHeteroLittleCoreSharesLabPlatform(t *testing.T) {
	l, err := NewLabWithConfig(sim.NoiselessConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := l.Hetero([]string{"gobmk"}, []float64{core.Unconstrained})
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
// hook, at the lab's worker bound.
func TestExperimentCollectionsTakeLabPath(t *testing.T) {
	l, err := NewLab(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		bench             string
		settings, workers int
	}
	var (
		mu    sync.Mutex
		calls []call
	)
	inner := l.collect
	l.collect = func(ctx context.Context, sys *sim.System, b workload.Benchmark, space *freq.Space, o trace.CollectOptions) (*trace.Grid, error) {
		mu.Lock()
		calls = append(calls, call{b.Name, space.Len(), o.Workers})
		mu.Unlock()
		return inner(ctx, sys, b, space, o)
	}
	if _, err := l.Hetero([]string{"gobmk"}, []float64{core.Unconstrained}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.CacheSensitivity(1.3, []int{1 << 20}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	seen := map[call]bool{
		{"gobmk", littleSpace().Len(), 1}:         false,
		{"soplex-like", l.CoarseSpace().Len(), 1}: false,
	}
	for _, c := range calls {
		if c.workers != 1 {
			t.Errorf("%s over %d settings collected with %d workers, want the lab's 1", c.bench, c.settings, c.workers)
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
