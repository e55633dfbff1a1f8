package dram

import (
	"math"
	"testing"

	"mcdvfs/internal/freq"
)

func newModel(t *testing.T) *EnergyModel {
	t.Helper()
	m, err := NewEnergyModel(DefaultDevice())
	if err != nil {
		t.Fatalf("NewEnergyModel: %v", err)
	}
	return m
}

func TestBackgroundPowerScalesWithClock(t *testing.T) {
	m := newModel(t)
	p200, err := m.BackgroundPowerW(200)
	if err != nil {
		t.Fatalf("BackgroundPowerW(200): %v", err)
	}
	p800, err := m.BackgroundPowerW(800)
	if err != nil {
		t.Fatalf("BackgroundPowerW(800): %v", err)
	}
	if p800 <= p200 {
		t.Errorf("background power not increasing with clock: %v vs %v", p200, p800)
	}
	// The clocked component at 200 MHz must be exactly 1/4 of that at 800.
	d := DefaultDevice()
	refresh := d.ERefJ / (d.TREFIns * 1e-9)
	clocked200 := p200 - d.PBgStaticW - refresh
	clocked800 := p800 - d.PBgStaticW - refresh
	if math.Abs(clocked800/clocked200-4) > 1e-9 {
		t.Errorf("clocked background ratio = %v, want 4", clocked800/clocked200)
	}
}

func TestBackgroundIncludesRefresh(t *testing.T) {
	m := newModel(t)
	d := DefaultDevice()
	p, err := m.BackgroundPowerW(d.FMin)
	if err != nil {
		t.Fatal(err)
	}
	refresh := d.ERefJ / (d.TREFIns * 1e-9)
	if p < d.PBgStaticW+refresh {
		t.Errorf("background %v below static+refresh floor %v", p, d.PBgStaticW+refresh)
	}
}

func TestEnergyEventAccounting(t *testing.T) {
	m := newModel(t)
	d := DefaultDevice()
	counts := Counts{Activates: 10, Reads: 100, Writes: 50}
	e, err := m.Energy(400, counts, 0)
	if err != nil {
		t.Fatalf("Energy: %v", err)
	}
	want := 10*d.EActPreJ + 100*d.ERdBurstJ + 50*d.EWrBurstJ
	if math.Abs(e-want) > 1e-15 {
		t.Errorf("event energy = %v, want %v", e, want)
	}
}

func TestEnergyTimeIntegration(t *testing.T) {
	m := newModel(t)
	bg, _ := m.BackgroundPowerW(800)
	e, err := m.Energy(800, Counts{}, 1e9) // one second idle
	if err != nil {
		t.Fatalf("Energy: %v", err)
	}
	if math.Abs(e-bg) > 1e-12 {
		t.Errorf("idle 1s energy = %v, want %v", e, bg)
	}
}

func TestEnergyRejectsBadInput(t *testing.T) {
	m := newModel(t)
	if _, err := m.Energy(800, Counts{}, -1); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := m.Energy(1600, Counts{}, 1); err == nil {
		t.Error("out-of-range clock accepted")
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{Activates: 1, Reads: 2, Writes: 3, Refreshes: 4}
	a.Add(Counts{Activates: 10, Reads: 20, Writes: 30, Refreshes: 40})
	want := Counts{Activates: 11, Reads: 22, Writes: 33, Refreshes: 44}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}

func TestNewEnergyModelRejectsInvalidDevice(t *testing.T) {
	d := DefaultDevice()
	d.Banks = 0
	if _, err := NewEnergyModel(d); err == nil {
		t.Error("invalid device accepted")
	}
}

// Background power must be monotone in clock across the whole ladder.
func TestBackgroundMonotone(t *testing.T) {
	m := newModel(t)
	prev := 0.0
	for _, f := range freq.Ladder(200, 800, 50) {
		p, err := m.BackgroundPowerW(f)
		if err != nil {
			t.Fatalf("BackgroundPowerW(%v): %v", f, err)
		}
		if p < prev {
			t.Errorf("background power decreased at %v", f)
		}
		prev = p
	}
}
