package mcdvfs

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestFacadeCollectAnalyze(t *testing.T) {
	g, err := Collect(context.Background(), "gobmk", CoarseSpace())
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if g.NumSettings() != 70 {
		t.Errorf("settings = %d, want 70", g.NumSettings())
	}
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	best, err := a.OptimalSetting(0, 1.3)
	if err != nil {
		t.Fatalf("OptimalSetting: %v", err)
	}
	st := g.Setting(best)
	if st.CPU < 100 || st.CPU > 1000 || st.Mem < 200 || st.Mem > 800 {
		t.Errorf("optimal setting %v outside platform range", st)
	}
	regions, err := a.StableRegions(1.3, 0.05)
	if err != nil {
		t.Fatalf("StableRegions: %v", err)
	}
	if len(regions) == 0 {
		t.Error("no stable regions")
	}
}

func TestFacadeBenchmarkRegistry(t *testing.T) {
	if len(Benchmarks()) < 14 {
		t.Errorf("suite size %d", len(Benchmarks()))
	}
	if len(HeadlineBenchmarks()) != 6 {
		t.Errorf("headline count %d", len(HeadlineBenchmarks()))
	}
	if _, err := BenchmarkByName("lbm"); err != nil {
		t.Errorf("BenchmarkByName: %v", err)
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 20 {
		t.Errorf("experiment count = %d, want 20", len(exps))
	}
	e, err := ExperimentByID("fig12")
	if err != nil {
		t.Fatalf("ExperimentByID: %v", err)
	}
	if e.Description == "" {
		t.Error("empty description")
	}
	if _, err := ExperimentByID("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeRunExperiment(t *testing.T) {
	lab, err := NewLab()
	if err != nil {
		t.Fatal(err)
	}
	e, err := ExperimentByID("fig12")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(context.Background(), lab, &buf); err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 12") || !strings.Contains(out, "496") {
		t.Errorf("unexpected fig12 output:\n%s", out)
	}
}

func TestFacadeSystemConfig(t *testing.T) {
	cfg := DefaultSystemConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := CollectOn(context.Background(), sys, "bzip2", CoarseSpace())
	if err != nil {
		t.Fatal(err)
	}
	if g.Benchmark != "bzip2" {
		t.Errorf("grid benchmark %q", g.Benchmark)
	}
}

func TestFacadeCollectContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Collect(ctx, "gobmk", FineSpace()); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestDefaultOverheadValues(t *testing.T) {
	oh := DefaultOverhead()
	if oh.TimeNS != 500_000 || oh.EnergyJ != 30e-6 {
		t.Errorf("overhead = %+v", oh)
	}
}
