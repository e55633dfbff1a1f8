package dram

import (
	"math"
	"testing"

	"mcdvfs/internal/freq"
)

func TestDefaultDeviceValid(t *testing.T) {
	if err := DefaultDevice().Validate(); err != nil {
		t.Fatalf("default device invalid: %v", err)
	}
}

func TestValidateCatchesBadDevices(t *testing.T) {
	mk := func(mut func(*Device)) Device {
		d := DefaultDevice()
		mut(&d)
		return d
	}
	cases := []struct {
		name string
		dev  Device
	}{
		{"zero banks", mk(func(d *Device) { d.Banks = 0 })},
		{"zero tRCD", mk(func(d *Device) { d.TRCDns = 0 })},
		{"line shorter than a burst", mk(func(d *Device) { d.LineBytes = d.BusBytes * d.BurstLen / 2 })},
		{"refresh interval below tRFC", mk(func(d *Device) { d.TREFIns = d.TRFCns })},
		{"inverted clock range", mk(func(d *Device) { d.FMax = d.FMin - 1 })},
		{"negative activate energy", mk(func(d *Device) { d.EActPreJ = -1 })},
		{"negative background", mk(func(d *Device) { d.PBgStaticW = -0.1 })},
	}
	for _, c := range cases {
		if err := c.dev.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad device", c.name)
		}
	}
}

func TestBurstScalesInverselyWithClock(t *testing.T) {
	d := DefaultDevice()
	b800 := d.BurstNS(800)
	b200 := d.BurstNS(200)
	if math.Abs(b200/b800-4) > 1e-9 {
		t.Errorf("burst(200)/burst(800) = %v, want 4", b200/b800)
	}
	// BL8 DDR at 800 MHz: 4 clocks of 1.25 ns = 5 ns.
	if math.Abs(b800-5) > 1e-9 {
		t.Errorf("burst at 800MHz = %v ns, want 5", b800)
	}
}

func TestRowMissSlowerThanRowHit(t *testing.T) {
	d := DefaultDevice()
	for _, f := range freq.Ladder(200, 800, 100) {
		if d.RowMissNS(f) <= d.RowHitNS(f) {
			t.Errorf("row miss not slower than hit at %v", f)
		}
	}
}

func TestLatencyDecreasesWithClock(t *testing.T) {
	d := DefaultDevice()
	prevHit, prevMiss := math.Inf(1), math.Inf(1)
	for _, f := range freq.Ladder(200, 800, 100) {
		hit, miss := d.RowHitNS(f), d.RowMissNS(f)
		if hit >= prevHit || miss >= prevMiss {
			t.Errorf("latency not strictly decreasing at %v: hit %v (prev %v), miss %v (prev %v)",
				f, hit, prevHit, miss, prevMiss)
		}
		prevHit, prevMiss = hit, miss
	}
}

func TestTimingAtRoundsUp(t *testing.T) {
	d := DefaultDevice()
	tm, err := d.TimingAt(800) // period 1.25 ns
	if err != nil {
		t.Fatalf("TimingAt: %v", err)
	}
	// tRCD = 18 ns / 1.25 = 14.4 -> 15 cycles.
	if tm.TRCD != 15 {
		t.Errorf("tRCD cycles at 800MHz = %d, want 15", tm.TRCD)
	}
	// tCAS = 15 ns / 1.25 = 12 exactly.
	if tm.TCAS != 12 {
		t.Errorf("tCAS cycles at 800MHz = %d, want 12", tm.TCAS)
	}
	if tm.Burst != 4 {
		t.Errorf("burst cycles = %d, want 4", tm.Burst)
	}
}

func TestTimingAtPreservesNSWithinOneCycle(t *testing.T) {
	d := DefaultDevice()
	for _, f := range freq.Ladder(200, 800, 100) {
		tm, err := d.TimingAt(f)
		if err != nil {
			t.Fatalf("TimingAt(%v): %v", f, err)
		}
		period := f.PeriodNS()
		checks := []struct {
			name   string
			cycles int
			ns     float64
		}{
			{"tRCD", tm.TRCD, d.TRCDns},
			{"tRP", tm.TRP, d.TRPns},
			{"tCAS", tm.TCAS, d.TCASns},
			{"tRAS", tm.TRAS, d.TRASns},
			{"tRFC", tm.TRFC, d.TRFCns},
		}
		for _, c := range checks {
			got := float64(c.cycles) * period
			if got < c.ns-1e-9 || got > c.ns+period+1e-9 {
				t.Errorf("%v at %v: %v ns not in [%v, %v+period]", c.name, f, got, c.ns, c.ns)
			}
		}
	}
}

func TestCheckClock(t *testing.T) {
	d := DefaultDevice()
	if err := d.CheckClock(500); err != nil {
		t.Errorf("CheckClock(500): %v", err)
	}
	if err := d.CheckClock(100); err == nil {
		t.Error("CheckClock(100) should fail below FMin")
	}
	if err := d.CheckClock(900); err == nil {
		t.Error("CheckClock(900) should fail above FMax")
	}
}

func TestRefreshOverheadSmall(t *testing.T) {
	d := DefaultDevice()
	oh := d.RefreshOverhead()
	if oh <= 0 || oh > 0.1 {
		t.Errorf("refresh overhead = %v, want small positive fraction", oh)
	}
}
