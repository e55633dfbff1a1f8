package mcdvfs_test

// Full-pipeline integration test over the public façade: characterize ->
// analyze -> profile -> replay -> verify the end-to-end invariants that
// tie the layers together. Everything here goes through the exported API
// only (package mcdvfs_test), so it doubles as a check that the façade is
// complete enough to build a real application on.

import (
	"bytes"
	"context"
	"math"
	"testing"

	"mcdvfs"
)

func TestEndToEndPipeline(t *testing.T) {
	const (
		bench     = "milc"
		budget    = 1.3
		threshold = 0.05
	)

	// 1. Characterize.
	grid, err := mcdvfs.Collect(context.Background(), bench, mcdvfs.CoarseSpace())
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	var buf bytes.Buffer
	if err := grid.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}

	// 2. Analyze.
	a, err := mcdvfs.Analyze(grid)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}

	// 3. Offline schedule construction and evaluation.
	optSch, err := a.OptimalSchedule(budget)
	if err != nil {
		t.Fatalf("OptimalSchedule: %v", err)
	}
	regions, err := a.StableRegions(budget, threshold)
	if err != nil {
		t.Fatalf("StableRegions: %v", err)
	}
	tr, err := a.EvaluateTradeoff(budget, threshold, mcdvfs.DefaultOverhead())
	if err != nil {
		t.Fatalf("EvaluateTradeoff: %v", err)
	}

	// Cross-layer invariants.
	if optSch.Transitions() < len(regions)-1 {
		t.Errorf("optimal tracking (%d transitions) below region schedule (%d)",
			optSch.Transitions(), len(regions)-1)
	}
	bound := threshold * 100 / (1 - threshold)
	if tr.PerfDegradationPct > bound || tr.PerfDegradationPct < -(bound+1) {
		t.Errorf("degradation %.2f%% outside band ±%.2f%%", tr.PerfDegradationPct, bound)
	}

	// 4. Online: the budget governor must land in the same neighbourhood
	// as the offline optimal schedule.
	sys, err := mcdvfs.NewSystem(mcdvfs.DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	model, err := mcdvfs.NewGovernorModel()
	if err != nil {
		t.Fatal(err)
	}
	gov, err := mcdvfs.NewBudgetGovernor(mcdvfs.BudgetGovernorConfig{
		Budget:    budget,
		Threshold: threshold,
		Space:     mcdvfs.CoarseSpace(),
		Model:     model,
		Search:    mcdvfs.FromMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mcdvfs.RunGovernor(sys, bench, gov, mcdvfs.DefaultGovernorOverhead())
	if err != nil {
		t.Fatalf("RunGovernor: %v", err)
	}

	offline, err := a.Execute(optSch, mcdvfs.Overhead{})
	if err != nil {
		t.Fatal(err)
	}
	// The online governor decides from the *previous* interval and pays
	// overhead, so it trails the clairvoyant offline schedule — but must
	// stay within a sane factor.
	if res.TimeNS < offline.TimeNS*0.95 {
		t.Errorf("online governor (%.0f ms) beat the clairvoyant schedule (%.0f ms)",
			res.TimeNS/1e6, offline.TimeNS/1e6)
	}
	if res.TimeNS > offline.TimeNS*1.30 {
		t.Errorf("online governor (%.0f ms) trails the offline schedule (%.0f ms) by >30%%",
			res.TimeNS/1e6, offline.TimeNS/1e6)
	}

	// 5. The grid round-trips and re-analyzes identically.
	grid2 := mustReadGrid(t, &buf)
	a2, err := mcdvfs.Analyze(grid2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a2.MaxInefficiency()-a.MaxInefficiency()) > 1e-12 {
		t.Error("Imax changed across grid serialization")
	}
	sch2, err := a2.OptimalSchedule(budget)
	if err != nil {
		t.Fatal(err)
	}
	for i := range optSch {
		if optSch[i] != sch2[i] {
			t.Fatalf("schedule diverged after round trip at sample %d", i)
		}
	}
}

func mustReadGrid(t *testing.T, buf *bytes.Buffer) *mcdvfs.Grid {
	t.Helper()
	g, err := mcdvfs.ReadGridJSON(buf)
	if err != nil {
		t.Fatalf("ReadGridJSON: %v", err)
	}
	return g
}
