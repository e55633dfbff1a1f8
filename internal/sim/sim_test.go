package sim

import (
	"math"
	"testing"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/workload"
)

// system returns a noiseless system so model-property tests see exact
// behaviour; noise-specific tests build their own.
func system(t *testing.T) *System {
	t.Helper()
	s, err := New(NoiselessConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestMeasurementNoiseDeterministicAndBounded(t *testing.T) {
	noisy, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean := system(t)
	spec := memBoundSpec()
	spec.Index = 17
	st := freq.Setting{CPU: 700, Mem: 500}
	a, _ := noisy.SimulateSample(spec, st)
	b, _ := noisy.SimulateSample(spec, st)
	if a != b {
		t.Error("noisy simulation not deterministic")
	}
	c, _ := clean.SimulateSample(spec, st)
	rel := math.Abs(a.TimeNS-c.TimeNS) / c.TimeNS
	if rel > 0.05 {
		t.Errorf("noise perturbed time by %v, want small", rel)
	}
	if a.TimeNS == c.TimeNS {
		t.Error("noise had no effect")
	}
	// Different settings draw different noise.
	d, _ := noisy.SimulateSample(spec, freq.Setting{CPU: 700, Mem: 600})
	cleanD, _ := clean.SimulateSample(spec, freq.Setting{CPU: 700, Mem: 600})
	if a.TimeNS/c.TimeNS == d.TimeNS/cleanD.TimeNS {
		t.Error("noise factors identical across settings")
	}
}

func TestNewRejectsBadNoise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeasurementNoise = -0.1
	if _, err := New(cfg); err == nil {
		t.Error("negative noise accepted")
	}
	cfg.MeasurementNoise = 0.5
	if _, err := New(cfg); err == nil {
		t.Error("huge noise accepted")
	}
	cfg = DefaultConfig()
	for _, k := range []float64{0.05, 11} {
		cfg.CPIFactor = k
		if _, err := New(cfg); err == nil {
			t.Errorf("CPI factor %v accepted", k)
		}
	}
}

func cpuBoundSpec() workload.SampleSpec {
	return workload.SampleSpec{
		Instructions: workload.SampleLen,
		BaseCPI:      0.9, MPKI: 0.5, RowHitRate: 0.7, MLP: 1.8, WriteFrac: 0.3,
	}
}

func memBoundSpec() workload.SampleSpec {
	return workload.SampleSpec{
		Instructions: workload.SampleLen,
		BaseCPI:      0.8, MPKI: 28, RowHitRate: 0.88, MLP: 3.5, WriteFrac: 0.45,
	}
}

func TestSimulateSampleBasics(t *testing.T) {
	s := system(t)
	smp, err := s.SimulateSample(cpuBoundSpec(), freq.Setting{CPU: 1000, Mem: 800})
	if err != nil {
		t.Fatalf("SimulateSample: %v", err)
	}
	if smp.TimeNS <= 0 || smp.CPUEnergyJ <= 0 || smp.MemEnergyJ <= 0 {
		t.Errorf("non-positive outputs: %+v", smp)
	}
	if smp.CPI < 0.9 {
		t.Errorf("achieved CPI %v below base CPI", smp.CPI)
	}
	if smp.Activity <= 0 || smp.Activity > 1 {
		t.Errorf("activity %v outside (0,1]", smp.Activity)
	}
	if smp.EnergyJ() != smp.CPUEnergyJ+smp.MemEnergyJ {
		t.Error("EnergyJ mismatch")
	}
}

func TestCPUBoundSpeedupTracksCPUFreq(t *testing.T) {
	s := system(t)
	spec := cpuBoundSpec()
	t1000, _ := s.SimulateSample(spec, freq.Setting{CPU: 1000, Mem: 800})
	t500, _ := s.SimulateSample(spec, freq.Setting{CPU: 500, Mem: 800})
	ratio := t500.TimeNS / t1000.TimeNS
	if ratio < 1.8 || ratio > 2.1 {
		t.Errorf("CPU-bound time ratio at half frequency = %v, want ~2", ratio)
	}
	// Memory frequency must barely matter (paper: bzip2 within 3% from
	// 200 MHz to 800 MHz memory at 1000 MHz CPU).
	m800, _ := s.SimulateSample(spec, freq.Setting{CPU: 1000, Mem: 800})
	m200, _ := s.SimulateSample(spec, freq.Setting{CPU: 1000, Mem: 200})
	if slow := m200.TimeNS / m800.TimeNS; slow > 1.03 {
		t.Errorf("CPU-bound workload slowed %vx by memory frequency, want <= 1.03", slow)
	}
}

func TestMemBoundSpeedupTracksMemFreq(t *testing.T) {
	s := system(t)
	spec := memBoundSpec()
	m800, _ := s.SimulateSample(spec, freq.Setting{CPU: 1000, Mem: 800})
	m200, _ := s.SimulateSample(spec, freq.Setting{CPU: 1000, Mem: 200})
	if ratio := m200.TimeNS / m800.TimeNS; ratio < 1.5 {
		t.Errorf("memory-bound slowdown at 200MHz memory = %v, want >= 1.5", ratio)
	}
	// CPU frequency must matter less than it does for the CPU-bound case.
	c1000, _ := s.SimulateSample(spec, freq.Setting{CPU: 1000, Mem: 800})
	c500, _ := s.SimulateSample(spec, freq.Setting{CPU: 500, Mem: 800})
	memBoundCPURatio := c500.TimeNS / c1000.TimeNS
	b1000, _ := s.SimulateSample(cpuBoundSpec(), freq.Setting{CPU: 1000, Mem: 800})
	b500, _ := s.SimulateSample(cpuBoundSpec(), freq.Setting{CPU: 500, Mem: 800})
	cpuBoundCPURatio := b500.TimeNS / b1000.TimeNS
	if memBoundCPURatio >= cpuBoundCPURatio {
		t.Errorf("memory-bound CPU sensitivity %v not below CPU-bound %v",
			memBoundCPURatio, cpuBoundCPURatio)
	}
}

func TestTimeMonotoneInEachKnob(t *testing.T) {
	s := system(t)
	for _, spec := range []workload.SampleSpec{cpuBoundSpec(), memBoundSpec()} {
		prev := math.Inf(1)
		for _, fc := range freq.Ladder(100, 1000, 100) {
			smp, err := s.SimulateSample(spec, freq.Setting{CPU: fc, Mem: 400})
			if err != nil {
				t.Fatalf("SimulateSample: %v", err)
			}
			if smp.TimeNS >= prev {
				t.Errorf("time not decreasing in CPU freq at %v (MPKI %v)", fc, spec.MPKI)
			}
			prev = smp.TimeNS
		}
		prev = math.Inf(1)
		for _, fm := range freq.Ladder(200, 800, 100) {
			smp, err := s.SimulateSample(spec, freq.Setting{CPU: 600, Mem: fm})
			if err != nil {
				t.Fatalf("SimulateSample: %v", err)
			}
			if smp.TimeNS > prev+1e-6 {
				t.Errorf("time increasing in mem freq at %v (MPKI %v)", fm, spec.MPKI)
			}
			prev = smp.TimeNS
		}
	}
}

func TestStallsInflateCPIAtHighCPUFreq(t *testing.T) {
	s := system(t)
	spec := memBoundSpec()
	lo, _ := s.SimulateSample(spec, freq.Setting{CPU: 100, Mem: 400})
	hi, _ := s.SimulateSample(spec, freq.Setting{CPU: 1000, Mem: 400})
	if hi.CPI <= lo.CPI {
		t.Errorf("memory-bound CPI at 1000MHz (%v) should exceed CPI at 100MHz (%v)", hi.CPI, lo.CPI)
	}
	if hi.Activity >= lo.Activity {
		t.Errorf("activity should drop at high CPU freq: %v vs %v", hi.Activity, lo.Activity)
	}
}

func TestSimulateSampleErrors(t *testing.T) {
	s := system(t)
	if _, err := s.SimulateSample(workload.SampleSpec{}, freq.Setting{CPU: 500, Mem: 400}); err == nil {
		t.Error("zero-instruction spec accepted")
	}
	bad := cpuBoundSpec()
	bad.BaseCPI = 0
	if _, err := s.SimulateSample(bad, freq.Setting{CPU: 500, Mem: 400}); err == nil {
		t.Error("zero CPI accepted")
	}
	if _, err := s.SimulateSample(cpuBoundSpec(), freq.Setting{CPU: 5000, Mem: 400}); err == nil {
		t.Error("out-of-range CPU frequency accepted")
	}
	if _, err := s.SimulateSample(cpuBoundSpec(), freq.Setting{CPU: 500, Mem: 100}); err == nil {
		t.Error("out-of-range memory frequency accepted")
	}
}

func TestDeterministicSimulation(t *testing.T) {
	s := system(t)
	spec := memBoundSpec()
	st := freq.Setting{CPU: 700, Mem: 500}
	a, _ := s.SimulateSample(spec, st)
	b, _ := s.SimulateSample(spec, st)
	if a != b {
		t.Error("simulation not deterministic")
	}
}

func TestBandwidthBoundRespected(t *testing.T) {
	s := system(t)
	// An extreme streaming sample at the slowest memory clock must be
	// bandwidth-bound: time >= bursts / bandwidth.
	spec := workload.SampleSpec{
		Instructions: workload.SampleLen,
		BaseCPI:      0.5, MPKI: 60, RowHitRate: 0.95, MLP: 8, WriteFrac: 0.5,
	}
	smp, err := s.SimulateSample(spec, freq.Setting{CPU: 1000, Mem: 200})
	if err != nil {
		t.Fatal(err)
	}
	accesses := float64(spec.Instructions) * spec.MPKI / 1000
	minNS, _ := system(t).ctrl.MinServiceTimeNS(200, accesses)
	if smp.TimeNS < minNS-1e-6 {
		t.Errorf("time %v below bandwidth bound %v", smp.TimeNS, minNS)
	}
}

func TestEnergyAtMaxVsMin(t *testing.T) {
	// Both the slowest and the fastest settings should cost more energy
	// than some intermediate setting (the Emin interior property that
	// makes inefficiency nontrivial).
	s := system(t)
	spec := workload.SampleSpec{
		Instructions: workload.SampleLen,
		BaseCPI:      1.0, MPKI: 8, RowHitRate: 0.55, MLP: 1.7, WriteFrac: 0.3,
	}
	eAt := func(fc, fm freq.MHz) float64 {
		smp, err := s.SimulateSample(spec, freq.Setting{CPU: fc, Mem: fm})
		if err != nil {
			t.Fatalf("SimulateSample(%v/%v): %v", fc, fm, err)
		}
		return smp.EnergyJ()
	}
	eMin := math.Inf(1)
	for _, fc := range freq.Ladder(100, 1000, 100) {
		for _, fm := range freq.Ladder(200, 800, 100) {
			if e := eAt(fc, fm); e < eMin {
				eMin = e
			}
		}
	}
	slowest := eAt(100, 200)
	fastest := eAt(1000, 800)
	if slowest <= eMin*1.05 {
		t.Errorf("slowest setting energy %v not clearly above Emin %v", slowest, eMin)
	}
	if fastest <= eMin*1.05 {
		t.Errorf("fastest setting energy %v not clearly above Emin %v", fastest, eMin)
	}
}
