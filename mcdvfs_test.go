package mcdvfs

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestFacadeCollectAnalyze(t *testing.T) {
	g, err := Collect("gobmk", CoarseSpace())
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
	g, err := CollectOn(sys, "bzip2", CoarseSpace())
	if err != nil {
		t.Fatal(err)
	}
	if g.Benchmark != "bzip2" {
		t.Errorf("grid benchmark %q", g.Benchmark)
	}
}

func TestFacadeCollectContextWorkerEquivalence(t *testing.T) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := CollectOnContext(context.Background(), sys, "milc", CoarseSpace(), CollectOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := CollectOnContext(context.Background(), sys, "milc", CoarseSpace(), CollectOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	var bs, bp bytes.Buffer
	if err := serial.WriteJSON(&bs); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&bp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		t.Error("parallel façade collection differs from serial")
	}
}

func TestFacadeCollectContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CollectContext(ctx, "gobmk", FineSpace(), CollectOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestFacadeLabOptions(t *testing.T) {
	lab, err := NewLab(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	k, err := lab.Key("bzip2", "")
	if err != nil {
		t.Fatal(err)
	}
	g, err := lab.GridFor(context.Background(), k)
	if err != nil {
		t.Fatalf("GridFor: %v", err)
	}
	if g.Benchmark != "bzip2" {
		t.Errorf("grid benchmark %q", g.Benchmark)
	}
}

func TestDefaultOverheadValues(t *testing.T) {
	oh := DefaultOverhead()
	if oh.TimeNS != 500_000 || oh.EnergyJ != 30e-6 {
		t.Errorf("overhead = %+v", oh)
	}
}
