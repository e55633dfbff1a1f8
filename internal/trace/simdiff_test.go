package trace

// The differential suite locking the columnar collection engine to the
// retained scalar reference: for every built-in benchmark, a grid collected
// through sim.Runner (at several pool sizes) must serialize byte-identical
// to a grid built cell-by-cell from sim.System.ReferenceSimulate with the
// same chain seeding. This is the contract that lets the hot path evolve —
// any reassociation, hoisting mistake, or scheduling leak shows up as a
// byte diff here.

import (
	"bytes"
	"context"
	"testing"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/workload"
)

// referenceGrid builds the oracle grid: the same chain decomposition the
// collection engine uses (one CPU step at a time, memory steps descending,
// warm seeds flowing down each chain), evaluated serially through the
// scalar reference.
func referenceGrid(t *testing.T, sys *sim.System, bench workload.Benchmark, space *freq.Space) *Grid {
	t.Helper()
	specs, err := bench.Realize()
	if err != nil {
		t.Fatalf("Realize: %v", err)
	}
	g := &Grid{
		Benchmark:   bench.Name,
		SampleInstr: workload.SampleLen,
		Settings:    append([]freq.Setting(nil), space.Settings()...),
		Data:        make([][]Measurement, len(specs)),
	}
	for s := range g.Data {
		g.Data[s] = make([]Measurement, space.Len())
	}
	nm := len(space.MemLadder())
	seeds := make([]float64, len(specs))
	for ci := range space.CPULadder() {
		for i := range seeds {
			seeds[i] = -1 // chain boundary: cold-start the first column
		}
		for mi := nm - 1; mi >= 0; mi-- {
			k := ci*nm + mi
			st := g.Settings[k]
			for s, spec := range specs {
				m, solved, err := sys.ReferenceSimulate(spec, st, seeds[s])
				if err != nil {
					t.Fatalf("ReferenceSimulate(%v): %v", st, err)
				}
				seeds[s] = solved
				if !m.Converged {
					g.ConvergenceFailures++
				}
				g.Data[s][k] = Measurement{
					TimeNS:     m.TimeNS,
					CPUEnergyJ: m.CPUEnergyJ,
					MemEnergyJ: m.MemEnergyJ,
					CPI:        m.CPI,
					MPKI:       m.MPKI,
				}
			}
		}
	}
	return g
}

// diffCollect collects bench at each pool size and requires byte-identity
// with the reference grid.
func diffCollect(t *testing.T, sys *sim.System, bench workload.Benchmark, space *freq.Space) {
	t.Helper()
	want := gridJSON(t, referenceGrid(t, sys, bench, space))
	for _, workers := range []int{1, 4, 8} {
		got, err := CollectContext(context.Background(), sys, bench, space, CollectOptions{Workers: workers})
		if err != nil {
			t.Fatalf("CollectContext(workers=%d): %v", workers, err)
		}
		if !bytes.Equal(gridJSON(t, got), want) {
			t.Errorf("workers=%d: collected grid differs from scalar reference", workers)
		}
	}
}

func TestCollectMatchesReferenceEveryBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential sweep")
	}
	sys := sim.MustNew(sim.DefaultConfig())
	space := freq.CoarseSpace()
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			diffCollect(t, sys, workload.MustByName(name), space)
		})
	}
}

func TestCollectMatchesReferenceConfigVariants(t *testing.T) {
	little := sim.NoiselessConfig()
	little.CPIFactor = 1.7
	for name, cfg := range map[string]sim.Config{
		"noiseless": sim.NoiselessConfig(),
		"littleCPI": little,
	} {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			sys := sim.MustNew(cfg)
			diffCollect(t, sys, workload.MustByName("milc"), freq.CoarseSpace())
		})
	}
}

// oscillator is a synthetic benchmark whose samples defeat the damped
// fixed-point iteration at high CPU / low memory frequency (see
// sim.TestConvergenceFailureReported): the grid must surface the failures
// rather than silently carrying the last iterate.
func oscillator() workload.Benchmark {
	return workload.Benchmark{
		Name:  "oscillator",
		Class: "int",
		Seed:  7,
		Phases: []workload.Phase{{
			Name: "thrash", Samples: 4,
			BaseCPI: 0.5, MPKI: 300, RowHitRate: 0, MLP: 8, WriteFrac: 1,
		}},
		Repeat: 1,
	}
}

func TestCollectSurfacesConvergenceFailures(t *testing.T) {
	sys := sim.MustNew(sim.NoiselessConfig())
	g, err := CollectContext(context.Background(), sys, oscillator(), freq.CoarseSpace(), CollectOptions{})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if g.ConvergenceFailures == 0 {
		t.Skip("oscillator benchmark converged everywhere — solver dynamics changed; rebuild the adversarial case")
	}
	// The count must be scheduling-independent and match the reference.
	ref := referenceGrid(t, sys, oscillator(), freq.CoarseSpace())
	if g.ConvergenceFailures != ref.ConvergenceFailures {
		t.Errorf("ConvergenceFailures = %d, reference %d", g.ConvergenceFailures, ref.ConvergenceFailures)
	}
	serial, err := CollectContext(context.Background(), sys, oscillator(), freq.CoarseSpace(), CollectOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.ConvergenceFailures != serial.ConvergenceFailures {
		t.Errorf("parallel count %d != serial count %d", g.ConvergenceFailures, serial.ConvergenceFailures)
	}
	// A clean benchmark keeps the zero value (and the omitempty JSON shape).
	clean, err := CollectContext(context.Background(), sys, smallBench(), freq.CoarseSpace(), CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.ConvergenceFailures != 0 {
		t.Errorf("clean benchmark reported %d convergence failures", clean.ConvergenceFailures)
	}
}
