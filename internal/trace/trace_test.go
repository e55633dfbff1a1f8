package trace

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/workload"
)

// smallBench is a short benchmark to keep collection tests fast.
func smallBench() workload.Benchmark {
	return workload.Benchmark{
		Name: "tiny", Class: "int", Seed: 7, Repeat: 2,
		Phases: []workload.Phase{
			{Name: "cpu", Samples: 3, BaseCPI: 0.9, MPKI: 1, RowHitRate: 0.7, MLP: 1.8, WriteFrac: 0.3},
			{Name: "mem", Samples: 2, BaseCPI: 1.2, MPKI: 20, RowHitRate: 0.8, MLP: 2.5, WriteFrac: 0.4},
		},
	}
}

func collectSmall(t *testing.T) *Grid {
	t.Helper()
	sys := sim.MustNew(sim.DefaultConfig())
	g, err := Collect(sys, smallBench(), freq.CoarseSpace())
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return g
}

func TestCollectShape(t *testing.T) {
	g := collectSmall(t)
	if g.NumSamples() != 10 {
		t.Errorf("samples = %d, want 10", g.NumSamples())
	}
	if g.NumSettings() != 70 {
		t.Errorf("settings = %d, want 70", g.NumSettings())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if g.Benchmark != "tiny" || g.SampleInstr != workload.SampleLen {
		t.Errorf("metadata wrong: %q %d", g.Benchmark, g.SampleInstr)
	}
}

func TestCollectDeterministic(t *testing.T) {
	a := collectSmall(t)
	b := collectSmall(t)
	for s := 0; s < a.NumSamples(); s++ {
		for k := 0; k < a.NumSettings(); k++ {
			if a.Data[s][k] != b.Data[s][k] {
				t.Fatalf("grid cell (%d,%d) differs between collections", s, k)
			}
		}
	}
}

func TestGridMaxSettingFastest(t *testing.T) {
	g := collectSmall(t)
	sp := freq.CoarseSpace()
	maxID, _ := sp.ID(sp.Max())
	tMax := g.TotalTimeNS(maxID)
	for k := range g.Settings {
		if tk := g.TotalTimeNS(freq.SettingID(k)); tk < tMax-1e-6 {
			t.Errorf("setting %v faster than max setting: %v < %v", g.Settings[k], tk, tMax)
		}
	}
}

func TestGridEnergyPositive(t *testing.T) {
	g := collectSmall(t)
	for k := range g.Settings {
		if e := g.TotalEnergyJ(freq.SettingID(k)); e <= 0 {
			t.Errorf("setting %v total energy %v", g.Settings[k], e)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := collectSmall(t)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if back.Benchmark != g.Benchmark || back.NumSamples() != g.NumSamples() || back.NumSettings() != g.NumSettings() {
		t.Fatal("round trip lost shape")
	}
	for s := range g.Data {
		for k := range g.Data[s] {
			if g.Data[s][k] != back.Data[s][k] {
				t.Fatalf("cell (%d,%d) changed in round trip", s, k)
			}
		}
	}
}

func TestReadJSONRejectsBadGrids(t *testing.T) {
	cases := []string{
		`{`, // truncated
		`{"benchmark":"","sample_instructions":1,"settings":[{"CPU":100,"Mem":200}],"data":[[{"time_ns":1}]]}`,
		`{"benchmark":"x","sample_instructions":0,"settings":[{"CPU":100,"Mem":200}],"data":[[{"time_ns":1}]]}`,
		`{"benchmark":"x","sample_instructions":1,"settings":[],"data":[[]]}`,
		`{"benchmark":"x","sample_instructions":1,"settings":[{"CPU":100,"Mem":200}],"data":[]}`,
		// ragged row
		`{"benchmark":"x","sample_instructions":1,"settings":[{"CPU":100,"Mem":200},{"CPU":200,"Mem":200}],"data":[[{"time_ns":1}]]}`,
		// non-physical time
		`{"benchmark":"x","sample_instructions":1,"settings":[{"CPU":100,"Mem":200}],"data":[[{"time_ns":0}]]}`,
	}
	for i, c := range cases {
		if _, err := ReadJSON(bytes.NewBufferString(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCollectPropagatesSimulationErrors(t *testing.T) {
	sys := sim.MustNew(sim.DefaultConfig())
	// A space outside the device's clock range must surface an error.
	badSpace := freq.NewSpace([]freq.MHz{500}, []freq.MHz{1600})
	if _, err := Collect(sys, smallBench(), badSpace); err == nil {
		t.Error("out-of-range space accepted")
	}
}

func TestCollectAllSettingsFailingDoesNotDeadlock(t *testing.T) {
	// Regression: when every setting errors, every worker exits early;
	// the setting feeder must not block forever on an undrained channel.
	sys := sim.MustNew(sim.DefaultConfig())
	badSpace := freq.NewSpace(
		freq.Ladder(100, 1000, 100),  // valid CPUs...
		[]freq.MHz{1600, 1700, 1800}, // ...but every memory clock invalid
	)
	done := make(chan error, 1)
	go func() {
		_, err := Collect(sys, smallBench(), badSpace)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("all-failing space accepted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Collect deadlocked with all settings failing")
	}
}

func TestCollectRejectsInvalidBenchmark(t *testing.T) {
	sys := sim.MustNew(sim.DefaultConfig())
	bad := workload.Benchmark{Name: "bad", Repeat: 1}
	if _, err := Collect(sys, bad, freq.CoarseSpace()); err == nil {
		t.Error("invalid benchmark accepted")
	}
}

// TestDrainChainDoesNotAllocate guards the collection worker's unit of
// work: with the grid and the Runner made, draining a chain (every column's
// solve, its scatter into the grid, the cancellation poll and the progress
// hook) allocates nothing.
func TestDrainChainDoesNotAllocate(t *testing.T) {
	space := freq.CoarseSpace()
	specs := workload.MustByName("lbm").MustRealize()
	r, err := sim.NewRunner(sim.MustNew(sim.DefaultConfig()), specs)
	if err != nil {
		t.Fatal(err)
	}
	g := &Grid{Settings: space.Settings(), Data: make([][]Measurement, len(specs))}
	for s := range g.Data {
		g.Data[s] = make([]Measurement, space.Len())
	}
	ctx := context.Background()
	var columnsDone atomic.Int64
	progress := func(done, total int) {}
	n := testing.AllocsPerRun(10, func() {
		if err := drainChain(ctx, r, g, 1, len(space.MemLadder()), &columnsDone, space.Len(), progress); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("drainChain: %v allocations per run, want 0", n)
	}
}
