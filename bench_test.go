package mcdvfs

// Benchmarks regenerating every figure of the paper's evaluation (one
// bench per figure; the paper has no numbered tables), plus ablation
// benches for the design choices called out in DESIGN.md §4.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The first benchmark to touch a grid pays its collection cost; the shared
// lab caches grids after that, so the numbers measure the analysis and
// rendering work of each figure.

import (
	"context"
	"io"
	"sync"
	"testing"

	"mcdvfs/internal/core"
	"mcdvfs/internal/dram"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/governor"
	"mcdvfs/internal/memctrl"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

var (
	benchLabOnce sync.Once
	benchLab     *Lab
	benchLabErr  error
)

func sharedLab(b *testing.B) *Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab, benchLabErr = NewLab()
		if benchLabErr != nil {
			return
		}
		// Pre-collect every grid the figures need so per-iteration
		// numbers measure analysis, not collection.
		collect := func(bench, space string) error {
			k, err := benchLab.Key(bench, space)
			if err == nil {
				_, err = benchLab.GridFor(context.Background(), k)
			}
			return err
		}
		for _, name := range HeadlineBenchmarks() {
			if benchLabErr = collect(name, "coarse"); benchLabErr != nil {
				return
			}
		}
		benchLabErr = collect("gobmk", "fine")
	})
	if benchLabErr != nil {
		b.Fatalf("lab: %v", benchLabErr)
	}
	return benchLab
}

func benchFigure(b *testing.B, id string) {
	lab := sharedLab(b)
	e, err := ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(context.Background(), lab, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig02InefficiencyVsSpeedup(b *testing.B) { benchFigure(b, "fig2") }
func BenchmarkFig03OptimalTrajectory(b *testing.B)     { benchFigure(b, "fig3") }
func BenchmarkFig04ClustersGobmk(b *testing.B)         { benchFigure(b, "fig4") }
func BenchmarkFig05ClustersMilc(b *testing.B)          { benchFigure(b, "fig5") }
func BenchmarkFig06StableRegionsLbm(b *testing.B)      { benchFigure(b, "fig6") }
func BenchmarkFig07StableRegions(b *testing.B)         { benchFigure(b, "fig7") }
func BenchmarkFig08Transitions(b *testing.B)           { benchFigure(b, "fig8") }
func BenchmarkFig09RegionLengths(b *testing.B)         { benchFigure(b, "fig9") }
func BenchmarkFig10TimeVsBudget(b *testing.B)          { benchFigure(b, "fig10") }
func BenchmarkFig11Tradeoffs(b *testing.B)             { benchFigure(b, "fig11") }
func BenchmarkFig12StepSensitivity(b *testing.B)       { benchFigure(b, "fig12") }
func BenchmarkGovernorComparison(b *testing.B)         { benchFigure(b, "governors") }

// Extension experiments (see DESIGN.md and EXPERIMENTS.md).
func BenchmarkExtBaselines(b *testing.B)        { benchFigure(b, "baselines") }
func BenchmarkExtModelComparison(b *testing.B)  { benchFigure(b, "modelcmp") }
func BenchmarkExtCacheSensitivity(b *testing.B) { benchFigure(b, "cachesens") }
func BenchmarkExtLowPower(b *testing.B)         { benchFigure(b, "lowpower") }
func BenchmarkExtImaxSurvey(b *testing.B)       { benchFigure(b, "imax") }
func BenchmarkExtHetero(b *testing.B)           { benchFigure(b, "hetero") }

// BenchmarkGridCollection measures the cost of one full 70-setting sweep,
// the paper's "70 simulations per benchmark" step.
func BenchmarkGridCollection(b *testing.B) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := CollectOn(context.Background(), sys, "gobmk", CoarseSpace()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollect pits the serial reference against the parallel engine
// on the 496-setting fine sweep — the collection that gates every figure —
// at increasing pool sizes, so the bench record tracks the speedup. All
// variants produce byte-identical grids (see
// internal/trace/collect_parallel_test.go).
func BenchmarkCollect(b *testing.B) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		b.Fatal(err)
	}
	gobmk := workload.MustByName("gobmk")
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"fine/serial", 1},
		{"fine/workers=2", 2},
		{"fine/workers=4", 4},
		{"fine/workers=gomaxprocs", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			opts := trace.CollectOptions{Workers: bc.workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := trace.CollectContext(ctx, sys, gobmk, freq.FineSpace(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectReference sweeps the same fine grid through the retained
// scalar reference (per-cell model evaluation, no hoisting, no warm
// starts) — the pre-columnar engine kept as the differential-test oracle.
// The BenchmarkCollect/fine/serial : BenchmarkCollectReference/fine/serial
// ratio is the batch engine's speedup; CI tracks both in BENCH_sim.json.
func BenchmarkCollectReference(b *testing.B) {
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	specs := workload.MustByName("gobmk").MustRealize()
	b.Run("fine/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, st := range freq.FineSpace().Settings() {
				if _, err := sys.ReferenceRun(specs, st); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationQueueing quantifies the M/M/1 queueing term against a
// fixed-latency (unloaded) memory model: the extra latency a loaded
// memory-bound phase sees. The metric queue_ns is the per-access queueing
// delay the design choice contributes.
func BenchmarkAblationQueueing(b *testing.B) {
	m := memctrl.MustNew(dram.DefaultDevice())
	load := memctrl.Load{AccessPerNS: 0.02, RowHitRate: 0.6, WriteFrac: 0.3}
	unloaded := memctrl.Load{RowHitRate: 0.6, WriteFrac: 0.3}
	var loadedNS, fixedNS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		loadedNS, err = m.AvgLatencyNS(400, load)
		if err != nil {
			b.Fatal(err)
		}
		fixedNS, err = m.AvgLatencyNS(400, unloaded)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(loadedNS-fixedNS, "queue_ns")
}

// BenchmarkAblationTieBreak compares the paper's highest-CPU-first
// tie-break against a lowest-energy tie-break inside the 0.5% speedup
// band: the alternative saves a little energy but changes the chosen
// trajectory. Metrics report transitions under each rule.
func BenchmarkAblationTieBreak(b *testing.B) {
	lab := sharedLab(b)
	k, err := lab.Key("gobmk", "")
	if err != nil {
		b.Fatal(err)
	}
	a, err := lab.AnalysisFor(context.Background(), k)
	if err != nil {
		b.Fatal(err)
	}
	const budget = 1.3
	var paperTrans, altTrans int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch, err := a.OptimalSchedule(budget)
		if err != nil {
			b.Fatal(err)
		}
		paperTrans = sch.Transitions()

		alt := make(core.Schedule, a.NumSamples())
		for s := range alt {
			ids, err := a.WithinBudget(s, budget)
			if err != nil {
				b.Fatal(err)
			}
			best := 0.0
			for _, k := range ids {
				if sp := a.Speedup(s, k); sp > best {
					best = sp
				}
			}
			chosen := freq.SettingID(-1)
			minE := 0.0
			for _, k := range ids {
				if a.Speedup(s, k) < best*(1-core.SpeedupTieBand) {
					continue
				}
				e := a.Grid().At(s, k).EnergyJ()
				if chosen < 0 || e < minE {
					chosen, minE = k, e
				}
			}
			alt[s] = chosen
		}
		altTrans = alt.Transitions()
	}
	b.ReportMetric(float64(paperTrans), "paper_transitions")
	b.ReportMetric(float64(altTrans), "minenergy_transitions")
}

// BenchmarkAblationSearchStart compares the CoScale-style restart-from-max
// search against the paper's start-from-previous proposal: settings
// evaluated per tune.
func BenchmarkAblationSearchStart(b *testing.B) {
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	specs := workload.MustByName("gobmk").MustRealize()
	model, err := governor.NewSimModel(sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	run := func(search governor.SearchStart) float64 {
		gov, err := governor.NewBudget(governor.BudgetConfig{
			Budget: 1.3, Threshold: 0.03, Space: freq.CoarseSpace(),
			Model: model, Search: search,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := governor.Run(sys, specs, gov, governor.DefaultOverhead())
		if err != nil {
			b.Fatal(err)
		}
		return res.AvgSearchedPerTune()
	}
	var fromMax, fromPrev float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fromMax = run(governor.FromMax)
		fromPrev = run(governor.FromPrevious)
	}
	b.ReportMetric(fromMax, "frommax_settings/tune")
	b.ReportMetric(fromPrev, "fromprev_settings/tune")
}

// BenchmarkAblationMLP quantifies the memory-level-parallelism overlap
// factor: the execution-time ratio of a memory-bound sample with MLP 1
// (every miss fully exposed) vs MLP 4 (deep overlap).
func BenchmarkAblationMLP(b *testing.B) {
	sys, err := sim.New(sim.NoiselessConfig())
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.SampleSpec{
		Instructions: workload.SampleLen,
		BaseCPI:      0.8, MPKI: 25, RowHitRate: 0.85, MLP: 1, WriteFrac: 0.4,
	}
	st := freq.Setting{CPU: 1000, Mem: 400}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.MLP = 1
		serial, err := sys.SimulateSample(spec, st)
		if err != nil {
			b.Fatal(err)
		}
		spec.MLP = 4
		overlapped, err := sys.SimulateSample(spec, st)
		if err != nil {
			b.Fatal(err)
		}
		ratio = serial.TimeNS / overlapped.TimeNS
	}
	b.ReportMetric(ratio, "mlp1_vs_mlp4_time_ratio")
}

// BenchmarkAblationScheduler quantifies FR-FCFS reordering against FCFS on
// a row-interleaved burst: the latency the open-page scheduler recovers.
func BenchmarkAblationScheduler(b *testing.B) {
	dev := dram.DefaultDevice()
	stream := func() []dram.Request {
		var reqs []dram.Request
		for i := 0; i < 64; i++ {
			reqs = append(reqs, dram.Request{ArrivalNS: float64(i), Bank: 0, Row: 1 + i%2})
		}
		return reqs
	}
	run := func(policy dram.SchedulerPolicy) float64 {
		s, err := dram.NewScheduledEngine(dev, 800, policy, 16)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Enqueue(stream()...); err != nil {
			b.Fatal(err)
		}
		st, err := s.Drain()
		if err != nil {
			b.Fatal(err)
		}
		return st.AvgLatencyNS()
	}
	var fcfs, frfcfs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fcfs = run(dram.FCFS)
		frfcfs = run(dram.FRFCFS)
	}
	b.ReportMetric(fcfs, "fcfs_avg_ns")
	b.ReportMetric(frfcfs, "frfcfs_avg_ns")
}

// BenchmarkSimulateSample measures the simulator's per-sample cost, the
// unit of all grid collection.
func BenchmarkSimulateSample(b *testing.B) {
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.MustByName("gobmk").MustRealize()[0]
	st := freq.Setting{CPU: 700, Mem: 500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SimulateSample(spec, st); err != nil {
			b.Fatal(err)
		}
	}
}
