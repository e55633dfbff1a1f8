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
