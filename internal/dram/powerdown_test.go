package dram

import (
	"math"
	"testing"
)

func TestPowerDownValidate(t *testing.T) {
	if err := DefaultPowerDown().Validate(); err != nil {
		t.Fatalf("default power-down invalid: %v", err)
	}
	bad := []PowerDown{
		{BackgroundFrac: -0.1},
		{BackgroundFrac: 1.5},
		{BackgroundFrac: 0.3, EntryNS: -1},
		{BackgroundFrac: 0.3, ExitNS: -1},
	}
	for i, pd := range bad {
		if err := pd.Validate(); err == nil {
			t.Errorf("bad power-down %d accepted", i)
		}
	}
}

func TestIdleSavingsFullyIdle(t *testing.T) {
	m := newModel(t)
	pd := DefaultPowerDown()
	s, err := m.IdleSavings(pd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-(1-pd.BackgroundFrac)) > 1e-12 {
		t.Errorf("idle savings = %v, want %v", s, 1-pd.BackgroundFrac)
	}
}

func TestIdleSavingsDecreaseWithRate(t *testing.T) {
	m := newModel(t)
	pd := DefaultPowerDown()
	prev := math.Inf(1)
	for _, rate := range []float64{0, 0.001, 0.01, 0.05, 0.2} {
		s, err := m.IdleSavings(pd, rate)
		if err != nil {
			t.Fatal(err)
		}
		if s > prev {
			t.Errorf("savings increased at rate %v", rate)
		}
		if s < 0 || s > 1 {
			t.Errorf("savings %v outside [0,1]", s)
		}
		prev = s
	}
}

// TestIdleSavingsBreakEven pins IdleSavings to its closed form: under
// Poisson arrivals at rate λ the recovered share of clocked background is
// (1 − BackgroundFrac)·exp(−λ·(EntryNS + ExitNS)), so at the break-even
// rate λ = 1/(EntryNS + ExitNS) it is (1 − BackgroundFrac)/e. The second
// policy's unequal latencies make both of them count.
func TestIdleSavingsBreakEven(t *testing.T) {
	m := newModel(t)
	for _, pd := range []PowerDown{DefaultPowerDown(), {BackgroundFrac: 0.5, EntryNS: 10, ExitNS: 40}} {
		roundTrip := pd.EntryNS + pd.ExitNS
		for _, rate := range []float64{0.001, 0.01, 1 / roundTrip, 0.05, 0.2} {
			s, err := m.IdleSavings(pd, rate)
			if err != nil {
				t.Fatal(err)
			}
			want := (1 - pd.BackgroundFrac) * math.Exp(-rate*roundTrip)
			if math.Abs(s-want) > 1e-12 {
				t.Errorf("%+v: savings at rate %v = %v, want %v", pd, rate, s, want)
			}
		}
		s, err := m.IdleSavings(pd, 1/roundTrip)
		if err != nil {
			t.Fatal(err)
		}
		if want := (1 - pd.BackgroundFrac) / math.E; math.Abs(s-want) > 1e-12 {
			t.Errorf("%+v: break-even savings = %v, want (1 − BackgroundFrac)/e = %v", pd, s, want)
		}
	}
}

func TestIdleSavingsRejectBadInput(t *testing.T) {
	m := newModel(t)
	if _, err := m.IdleSavings(PowerDown{BackgroundFrac: 2}, 0.01); err == nil {
		t.Error("bad policy accepted")
	}
	if _, err := m.IdleSavings(DefaultPowerDown(), -1); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := m.IdleSavings(DefaultPowerDown(), math.NaN()); err == nil {
		t.Error("NaN rate accepted")
	}
}

func TestEnergyWithPowerDownBounds(t *testing.T) {
	m := newModel(t)
	pd := DefaultPowerDown()
	counts := Counts{Reads: 200, Writes: 100, Activates: 60}
	duration := 1e7 // 10 ms
	base, err := m.Energy(400, counts, duration)
	if err != nil {
		t.Fatal(err)
	}
	withPD, err := m.EnergyWithPowerDown(400, counts, duration, pd)
	if err != nil {
		t.Fatal(err)
	}
	if withPD >= base {
		t.Errorf("power-down energy %v not below base %v", withPD, base)
	}
	// Savings can never exceed the whole clocked background.
	d := m.Device()
	clockedE := d.PBgClockedW * float64(freqRatio(400, d)) * duration * 1e-9
	if base-withPD > clockedE+1e-15 {
		t.Errorf("saved %v exceeds clocked background %v", base-withPD, clockedE)
	}
}

func TestEnergyWithPowerDownBusyStream(t *testing.T) {
	// A saturated stream leaves almost no usable gaps.
	m := newModel(t)
	d := m.Device()
	pd := DefaultPowerDown()
	duration := 1e6
	// One access per line-transfer-time: bus fully busy.
	accesses := duration / d.LineTransferNS(800)
	counts := Counts{Reads: int(accesses) * d.LineBursts()}
	base, _ := m.Energy(800, counts, duration)
	withPD, err := m.EnergyWithPowerDown(800, counts, duration, pd)
	if err != nil {
		t.Fatal(err)
	}
	saveFrac := (base - withPD) / base
	if saveFrac > 0.05 {
		t.Errorf("saturated stream saved %.1f%% energy; should be near zero", saveFrac*100)
	}
}

// freqRatio helps compute the clocked-background scale factor in tests.
func freqRatio(f float64, d Device) float64 { return f / float64(d.FMax) }
