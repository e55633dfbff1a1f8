package model

import (
	"math"
	"testing"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/workload"
)

func newModel(t *testing.T) *CrossComponent {
	t.Helper()
	cfg := sim.NoiselessConfig()
	m, err := New(Config{CPUPower: cfg.CPUPower, Device: cfg.Device})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// observeAt runs the noiseless simulator for spec at st and feeds the
// resulting counters to the model, returning the simulated sample.
func observeAt(t *testing.T, m *CrossComponent, sys *sim.System, spec workload.SampleSpec, st freq.Setting) sim.Sample {
	t.Helper()
	s, err := sys.SimulateSample(spec, st)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Observe(Counters{
		Setting:      st,
		Instructions: spec.Instructions,
		TimeNS:       s.TimeNS,
		MPKI:         spec.MPKI,
		RowHitRate:   spec.RowHitRate,
		WriteFrac:    spec.WriteFrac,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testSpec(mpki, mlp float64) workload.SampleSpec {
	return workload.SampleSpec{
		Instructions: workload.SampleLen,
		BaseCPI:      1.1, MPKI: mpki, RowHitRate: 0.6, MLP: mlp, WriteFrac: 0.3,
	}
}

func TestLearnsCoefficientsFromObservations(t *testing.T) {
	m := newModel(t)
	sys, err := sim.New(sim.NoiselessConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(12, 2.0)
	// Observe the same interval behaviour at several distinct settings so
	// the two regressors decorrelate.
	for _, st := range []freq.Setting{
		{CPU: 1000, Mem: 800}, {CPU: 400, Mem: 800}, {CPU: 1000, Mem: 200},
		{CPU: 600, Mem: 400}, {CPU: 800, Mem: 600},
	} {
		observeAt(t, m, sys, spec, st)
	}
	if !m.Ready() {
		t.Fatal("model not ready after 5 observations")
	}
	// α should approach the true base CPI and β the true 1/MLP.
	if math.Abs(m.Alpha()-spec.BaseCPI)/spec.BaseCPI > 0.25 {
		t.Errorf("alpha = %.3f, true base CPI %.3f", m.Alpha(), spec.BaseCPI)
	}
	if math.Abs(m.Beta()-1/spec.MLP)/(1/spec.MLP) > 0.35 {
		t.Errorf("beta = %.3f, true 1/MLP %.3f", m.Beta(), 1/spec.MLP)
	}
}

func TestPredictionAccuracyAcrossGrid(t *testing.T) {
	m := newModel(t)
	sys, err := sim.New(sim.NoiselessConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(18, 2.5)
	for _, st := range []freq.Setting{
		{CPU: 1000, Mem: 800}, {CPU: 300, Mem: 800}, {CPU: 1000, Mem: 200},
		{CPU: 500, Mem: 500}, {CPU: 700, Mem: 300},
	} {
		observeAt(t, m, sys, spec, st)
	}
	// Predict every coarse setting and compare against ground truth.
	var worstTime, worstEnergy float64
	for _, st := range freq.CoarseSpace().Settings() {
		truth, err := sys.SimulateSample(spec, st)
		if err != nil {
			t.Fatal(err)
		}
		tns, ej, err := m.PredictCounters(Counters{
			Setting: st, Instructions: spec.Instructions, TimeNS: 1,
			MPKI: spec.MPKI, RowHitRate: spec.RowHitRate, WriteFrac: spec.WriteFrac,
		}, st)
		if err != nil {
			t.Fatalf("PredictCounters(%v): %v", st, err)
		}
		timeErr := math.Abs(tns-truth.TimeNS) / truth.TimeNS
		energyErr := math.Abs(ej-truth.EnergyJ()) / truth.EnergyJ()
		if timeErr > worstTime {
			worstTime = timeErr
		}
		if energyErr > worstEnergy {
			worstEnergy = energyErr
		}
	}
	if worstTime > 0.15 {
		t.Errorf("worst time prediction error %.1f%%, want <= 15%%", worstTime*100)
	}
	if worstEnergy > 0.15 {
		t.Errorf("worst energy prediction error %.1f%%, want <= 15%%", worstEnergy*100)
	}
}

func TestTracksPhaseChanges(t *testing.T) {
	m := newModel(t)
	sys, err := sim.New(sim.NoiselessConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Learn a CPU phase, then switch to a memory-heavy phase with lower
	// MLP; the forgetting factor must move β toward the new truth.
	cpuPhase := testSpec(1, 2.0)
	for _, st := range []freq.Setting{{CPU: 1000, Mem: 800}, {CPU: 400, Mem: 400}, {CPU: 700, Mem: 200}} {
		observeAt(t, m, sys, cpuPhase, st)
	}
	memPhase := testSpec(30, 1.2)
	for i := 0; i < 15; i++ {
		sts := []freq.Setting{{CPU: 1000, Mem: 800}, {CPU: 500, Mem: 300}, {CPU: 800, Mem: 600}}
		observeAt(t, m, sys, memPhase, sts[i%len(sts)])
	}
	wantBeta := 1 / memPhase.MLP
	if math.Abs(m.Beta()-wantBeta)/wantBeta > 0.4 {
		t.Errorf("beta after phase change = %.3f, want near %.3f", m.Beta(), wantBeta)
	}
}

func TestObserveValidation(t *testing.T) {
	m := newModel(t)
	bad := []Counters{
		{Setting: freq.Setting{CPU: 500, Mem: 400}, Instructions: 0, TimeNS: 1},
		{Setting: freq.Setting{CPU: 500, Mem: 400}, Instructions: 1, TimeNS: 0},
		{Setting: freq.Setting{CPU: 500, Mem: 400}, Instructions: 1, TimeNS: 1, MPKI: -1},
		{Setting: freq.Setting{CPU: 500, Mem: 400}, Instructions: 1, TimeNS: 1, RowHitRate: 2},
		{Setting: freq.Setting{CPU: 500, Mem: 400}, Instructions: 1, TimeNS: 1, WriteFrac: -0.5},
	}
	for i, c := range bad {
		if err := m.Observe(c); err == nil {
			t.Errorf("bad counters %d accepted", i)
		}
	}
}

// TestObserveKeepsCoefficientsPhysical feeds Observe valid counters at the
// edges of what a PMU reports — ten million instructions in one nanosecond
// at the top setting, with and without DRAM traffic, and in a thousand
// seconds at the bottom one — and requires the estimate to stay physical
// after every update: α at or above its 0.05 floor, β within [0, 1.5].
func TestObserveKeepsCoefficientsPhysical(t *testing.T) {
	m := newModel(t)
	extremes := []Counters{
		{Setting: freq.Setting{CPU: 1000, Mem: 800}, Instructions: 10_000_000, TimeNS: 1},
		{Setting: freq.Setting{CPU: 1000, Mem: 800}, Instructions: 10_000_000, TimeNS: 1, MPKI: 50},
		{Setting: freq.Setting{CPU: 100, Mem: 200}, Instructions: 10_000_000, TimeNS: 1e12},
	}
	for round := 0; round < 6; round++ {
		for i, c := range extremes {
			if err := m.Observe(c); err != nil {
				t.Fatalf("round %d, counters %d: %v", round, i, err)
			}
			if a := m.Alpha(); !(a >= 0.05) {
				t.Errorf("round %d, counters %d: alpha %v below its 0.05 floor", round, i, a)
			}
			if b := m.Beta(); !(b >= 0 && b <= 1.5) {
				t.Errorf("round %d, counters %d: beta %v outside [0, 1.5]", round, i, b)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	cfg := sim.NoiselessConfig()
	bad := cfg.Device
	bad.Banks = 0
	if _, err := New(Config{CPUPower: cfg.CPUPower, Device: bad}); err == nil {
		t.Error("invalid device accepted")
	}
}

func TestColdModelPredictsWithPrior(t *testing.T) {
	m := newModel(t)
	// Even unobserved, the physical prior must produce finite predictions.
	tns, ej, err := m.Predict(testSpec(10, 2), freq.Setting{CPU: 800, Mem: 600})
	if err != nil {
		t.Fatal(err)
	}
	if tns <= 0 || ej <= 0 || math.IsInf(tns, 0) || math.IsNaN(ej) {
		t.Errorf("cold prediction %v ns, %v J", tns, ej)
	}
}

func TestPredictRejectsOutOfRangeSettings(t *testing.T) {
	m := newModel(t)
	if _, _, err := m.Predict(testSpec(10, 2), freq.Setting{CPU: 5000, Mem: 600}); err == nil {
		t.Error("out-of-range CPU accepted")
	}
	if _, _, err := m.Predict(testSpec(10, 2), freq.Setting{CPU: 800, Mem: 100}); err == nil {
		t.Error("out-of-range memory accepted")
	}
}
