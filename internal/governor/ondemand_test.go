package governor

import (
	"testing"

	"mcdvfs/internal/freq"
)

func TestOnDemandValidation(t *testing.T) {
	if _, err := NewOnDemand(nil); err == nil {
		t.Error("nil space accepted")
	}
}

func TestOnDemandBootsMidLadder(t *testing.T) {
	sp := freq.CoarseSpace()
	od, err := NewOnDemand(sp)
	if err != nil {
		t.Fatal(err)
	}
	d, err := od.Decide(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Setting.CPU <= sp.Min().CPU || d.Setting.CPU >= sp.Max().CPU {
		t.Errorf("boot CPU %v not mid-ladder", d.Setting.CPU)
	}
}

func TestOnDemandRampsUpUnderLoad(t *testing.T) {
	sp := freq.CoarseSpace()
	od, _ := NewOnDemand(sp)
	od.Decide(nil, nil)
	// A busy core (CPI ~1) jumps the CPU straight to maximum.
	d, err := od.Decide(&Observation{CPI: 1.0, MPKI: 25}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Setting.CPU != sp.Max().CPU {
		t.Errorf("busy core CPU %v, want max", d.Setting.CPU)
	}
	if d.Setting.Mem != sp.Max().Mem {
		t.Errorf("heavy traffic memory %v, want max", d.Setting.Mem)
	}
}

func TestOnDemandStepsDownWhenIdle(t *testing.T) {
	sp := freq.CoarseSpace()
	od, _ := NewOnDemand(sp)
	od.Decide(nil, nil)
	first, _ := od.Decide(&Observation{CPI: 5.0, MPKI: 0.5}, nil) // stalled + quiet memory
	second, _ := od.Decide(&Observation{CPI: 5.0, MPKI: 0.5}, nil)
	if second.Setting.CPU >= first.Setting.CPU {
		t.Errorf("idle core did not step down: %v then %v", first.Setting.CPU, second.Setting.CPU)
	}
	if second.Setting.Mem >= first.Setting.Mem {
		t.Errorf("quiet memory did not step down: %v then %v", first.Setting.Mem, second.Setting.Mem)
	}
}

func TestOnDemandNeverLeavesLadder(t *testing.T) {
	sp := freq.CoarseSpace()
	od, _ := NewOnDemand(sp)
	od.Decide(nil, nil)
	// Drive it down for many intervals; it must clamp at the minimum.
	var d Decision
	for i := 0; i < 30; i++ {
		d, _ = od.Decide(&Observation{CPI: 10, MPKI: 0}, nil)
	}
	if d.Setting != sp.Min() {
		t.Errorf("after sustained idle: %v, want %v", d.Setting, sp.Min())
	}
}

func TestOnDemandIgnoresEnergyBudget(t *testing.T) {
	// The point of the baseline: a busy workload pins ondemand at max —
	// inefficiency lands wherever it lands (compare the budget governor,
	// which respects I).
	sys := testSystem(t)
	specs := testSpecs(t, "gobmk", 0)
	od, err := NewOnDemand(freq.CoarseSpace())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, specs, od, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeNS <= 0 {
		t.Fatal("no execution")
	}
	// gobmk keeps the core busy, so ondemand should spend most samples at
	// max CPU.
	atMax := 0
	for _, st := range res.Schedule {
		if st.CPU == 1000 {
			atMax++
		}
	}
	if atMax < len(res.Schedule)/2 {
		t.Errorf("ondemand at max CPU for only %d/%d samples", atMax, len(res.Schedule))
	}
}
