package cpupower

import (
	"math"
	"testing"
	"testing/quick"

	"mcdvfs/internal/freq"
)

func defaultModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(DefaultParams())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestPeakPowerAnchors(t *testing.T) {
	m := defaultModel(t)
	b, err := m.Power(freq.CPUMaxMHz, 1)
	if err != nil {
		t.Fatalf("Power: %v", err)
	}
	p := DefaultParams()
	if math.Abs(b.DynamicW-p.PeakDynamicW) > 1e-12 {
		t.Errorf("dynamic at peak = %v, want %v", b.DynamicW, p.PeakDynamicW)
	}
	if math.Abs(b.BackgroundW-p.BackgroundW) > 1e-12 {
		t.Errorf("background at peak = %v, want %v", b.BackgroundW, p.BackgroundW)
	}
	if math.Abs(b.LeakageW-p.LeakageW) > 1e-12 {
		t.Errorf("leakage at peak = %v, want %v", b.LeakageW, p.LeakageW)
	}
}

func TestDynamicScalesV2F(t *testing.T) {
	m := defaultModel(t)
	v, err := DefaultParams().OPPs.VoltageAt(500)
	if err != nil {
		t.Fatalf("VoltageAt: %v", err)
	}
	b, err := m.Power(500, 1)
	if err != nil {
		t.Fatalf("Power: %v", err)
	}
	want := DefaultParams().PeakDynamicW * 0.5 * math.Pow(float64(v)/1.25, 2)
	if math.Abs(b.DynamicW-want) > 1e-9 {
		t.Errorf("dynamic at 500MHz = %v, want %v", b.DynamicW, want)
	}
}

func TestBackgroundScalesLikeDynamic(t *testing.T) {
	m := defaultModel(t)
	for _, f := range []freq.MHz{100, 300, 700, 1000} {
		b, err := m.Power(f, 1)
		if err != nil {
			t.Fatalf("Power(%v): %v", f, err)
		}
		ratio := b.BackgroundW / b.DynamicW
		wantRatio := DefaultParams().BackgroundW / DefaultParams().PeakDynamicW
		if math.Abs(ratio-wantRatio) > 1e-9 {
			t.Errorf("background/dynamic ratio at %v = %v, want %v", f, ratio, wantRatio)
		}
	}
}

func TestLeakageLinearInVoltage(t *testing.T) {
	m := defaultModel(t)
	p := DefaultParams()
	b100, _ := m.Power(100, 0)
	v100, _ := p.OPPs.VoltageAt(100)
	want := p.LeakageW * float64(v100/p.VMax)
	if math.Abs(b100.LeakageW-want) > 1e-9 {
		t.Errorf("leakage at 100MHz = %v, want %v", b100.LeakageW, want)
	}
	// Leakage must not depend on activity.
	b100a, _ := m.Power(100, 1)
	if b100a.LeakageW != b100.LeakageW {
		t.Errorf("leakage depends on activity: %v vs %v", b100a.LeakageW, b100.LeakageW)
	}
}

func TestZeroActivityKillsOnlyDynamic(t *testing.T) {
	m := defaultModel(t)
	b, err := m.Power(800, 0)
	if err != nil {
		t.Fatalf("Power: %v", err)
	}
	if b.DynamicW != 0 {
		t.Errorf("dynamic at activity 0 = %v, want 0", b.DynamicW)
	}
	if b.BackgroundW <= 0 || b.LeakageW <= 0 {
		t.Errorf("background/leakage should persist at idle: %+v", b)
	}
}

func TestEnergyIntegration(t *testing.T) {
	m := defaultModel(t)
	b, _ := m.Power(1000, 1)
	e, err := m.Energy(1000, 1, 1e9) // one second
	if err != nil {
		t.Fatalf("Energy: %v", err)
	}
	if math.Abs(e-b.TotalW()) > 1e-12 {
		t.Errorf("1s energy = %v J, want %v", e, b.TotalW())
	}
}

func TestEnergyErrors(t *testing.T) {
	m := defaultModel(t)
	if _, err := m.Energy(1000, 1, -1); err == nil {
		t.Error("negative duration should error")
	}
	if _, err := m.Energy(1000, 2, 1); err == nil {
		t.Error("activity > 1 should error")
	}
	if _, err := m.Energy(5000, 1, 1); err == nil {
		t.Error("frequency outside OPP range should error")
	}
}

func TestNewValidation(t *testing.T) {
	p := DefaultParams()
	p.PeakDynamicW = 0
	if _, err := New(p); err == nil {
		t.Error("zero peak dynamic should be rejected")
	}
	p = DefaultParams()
	p.OPPs = nil
	if _, err := New(p); err == nil {
		t.Error("nil OPP table should be rejected")
	}
	p = DefaultParams()
	p.FMax = 0
	if _, err := New(p); err == nil {
		t.Error("zero FMax should be rejected")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with invalid params did not panic")
		}
	}()
	MustNew(Params{})
}

// Property: total power is monotone non-decreasing in frequency at fixed
// activity, because every component is non-decreasing in f (via V(f)).
func TestPowerMonotoneInFrequency(t *testing.T) {
	m := defaultModel(t)
	prev := 0.0
	for _, f := range freq.Ladder(100, 1000, 50) {
		b, err := m.Power(f, 0.7)
		if err != nil {
			t.Fatalf("Power(%v): %v", f, err)
		}
		if b.TotalW() < prev {
			t.Errorf("total power decreased at %v", f)
		}
		prev = b.TotalW()
	}
}

// Property: energy-per-work (per cycle at full activity) has a single
// interior minimum: decreasing then increasing across the ladder. This is
// the race-to-idle vs voltage-scaling tension that makes Emin nontrivial.
func TestEnergyPerCycleConvexShape(t *testing.T) {
	m := defaultModel(t)
	var vals []float64
	for _, f := range freq.Ladder(100, 1000, 100) {
		// Active-execution energy per cycle: full-activity power over the
		// clock rate in hertz.
		b, err := m.Power(f, 1)
		if err != nil {
			t.Fatalf("Power(%v, 1): %v", f, err)
		}
		vals = append(vals, b.TotalW()/(float64(f)*1e6))
	}
	// Find the argmin and require strictly decreasing before it and
	// strictly increasing after it.
	argmin := 0
	for i, v := range vals {
		if v < vals[argmin] {
			argmin = i
		}
	}
	if argmin == 0 || argmin == len(vals)-1 {
		t.Fatalf("energy/cycle minimum at ladder edge (idx %d): %v", argmin, vals)
	}
	for i := 1; i <= argmin; i++ {
		if vals[i] >= vals[i-1] {
			t.Errorf("not decreasing before min at idx %d: %v", i, vals)
		}
	}
	for i := argmin + 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Errorf("not increasing after min at idx %d: %v", i, vals)
		}
	}
}

// Property-based: power components are non-negative and finite for any
// in-range frequency/activity.
func TestPowerAlwaysPhysical(t *testing.T) {
	m := defaultModel(t)
	f := func(fRaw, aRaw uint16) bool {
		fr := freq.MHz(100 + float64(fRaw%901))
		act := float64(aRaw%1001) / 1000
		b, err := m.Power(fr, act)
		if err != nil {
			return false
		}
		for _, w := range []float64{b.DynamicW, b.BackgroundW, b.LeakageW} {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
