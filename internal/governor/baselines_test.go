package governor

import (
	"testing"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
)

func TestRateLimiterValidation(t *testing.T) {
	if _, err := NewRateLimiter(nil, 1); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := NewRateLimiter(freq.CoarseSpace(), 0); err == nil {
		t.Error("zero allowance accepted")
	}
	if _, err := NewRateLimiter(freq.CoarseSpace(), -1); err == nil {
		t.Error("negative allowance accepted")
	}
}

func TestRateLimiterBangBang(t *testing.T) {
	sp := freq.CoarseSpace()
	rl, err := NewRateLimiter(sp, 0.010) // 10 mJ per interval
	if err != nil {
		t.Fatal(err)
	}
	// First decision: minimum.
	d, err := rl.Decide(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Setting != sp.Min() {
		t.Errorf("first setting %v, want min", d.Setting)
	}
	// Underspend -> race to max.
	d, _ = rl.Decide(&Observation{EnergyJ: 0.005}, nil)
	if d.Setting != sp.Max() {
		t.Errorf("underspend setting %v, want max", d.Setting)
	}
	// Overspend -> throttle to min.
	d, _ = rl.Decide(&Observation{EnergyJ: 0.020}, nil)
	if d.Setting != sp.Min() {
		t.Errorf("overspend setting %v, want min", d.Setting)
	}
}

func TestRateLimiterWastesEnergyVsBudgetGovernor(t *testing.T) {
	// The paper's argument: an absolute per-interval energy allowance is
	// workload-blind. Pick the allowance as the average interval energy of
	// the budget governor's run, then show the rate limiter delivers worse
	// performance for comparable (or more) energy.
	sys := testSystem(t)
	specs := testSpecs(t, "gobmk", 0)

	budget := budgetGov(t, 1.3, 0.03, FromMax, false)
	rBudget, err := Run(sys, specs, budget, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	allowance := rBudget.EnergyJ / float64(len(specs))
	rl, err := NewRateLimiter(freq.CoarseSpace(), allowance)
	if err != nil {
		t.Fatal(err)
	}
	rRL, err := Run(sys, specs, rl, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	if rRL.TimeNS <= rBudget.TimeNS {
		t.Errorf("rate limiter (%.0f ms) beat the budget governor (%.0f ms); the paper's critique should hold",
			rRL.TimeNS/1e6, rBudget.TimeNS/1e6)
	}
	// Bang-bang control also thrashes settings.
	if rRL.Transitions <= rBudget.Transitions {
		t.Errorf("rate limiter transitions %d <= budget governor %d", rRL.Transitions, rBudget.Transitions)
	}
}

func TestEDPValidation(t *testing.T) {
	model, _ := NewSimModel(sim.DefaultConfig())
	if _, err := NewEDP(nil, model, 1); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := NewEDP(freq.CoarseSpace(), nil, 1); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewEDP(freq.CoarseSpace(), model, -1); err == nil {
		t.Error("negative exponent accepted")
	}
	if _, err := NewEDP(freq.CoarseSpace(), model, 5); err == nil {
		t.Error("huge exponent accepted")
	}
}

func TestEDPHasNoBudgetKnob(t *testing.T) {
	// The paper: EDP gives one operating point per workload; it cannot be
	// asked to spend less. Verify that EDP lands at a fixed inefficiency
	// regardless of any desired budget, while the budget governor moves.
	sys := testSystem(t)
	specs := testSpecs(t, "gobmk", 0)
	model, err := NewSimModel(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	edp, err := NewEDP(freq.CoarseSpace(), model, 1)
	if err != nil {
		t.Fatal(err)
	}
	rEDP, err := Run(sys, specs, edp, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}

	gTight := budgetGov(t, 1.05, 0.03, FromMax, false)
	rTight, err := Run(sys, specs, gTight, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	gLoose := budgetGov(t, 1.6, 0.03, FromMax, false)
	rLoose, err := Run(sys, specs, gLoose, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	// The budget governor spans a range of energies around EDP's single
	// point; EDP itself cannot reach the tight end.
	if !(rTight.EnergyJ < rEDP.EnergyJ) {
		t.Errorf("tight budget (%.0f mJ) not below EDP (%.0f mJ)", rTight.EnergyJ*1e3, rEDP.EnergyJ*1e3)
	}
	if !(rLoose.TimeNS < rEDP.TimeNS) {
		t.Errorf("loose budget (%.0f ms) not faster than EDP (%.0f ms)", rLoose.TimeNS/1e6, rEDP.TimeNS/1e6)
	}
}

func TestED2PFavorsPerformanceOverEDP(t *testing.T) {
	sys := testSystem(t)
	specs := testSpecs(t, "milc", 60)
	model, err := NewSimModel(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	edp, _ := NewEDP(freq.CoarseSpace(), model, 1)
	ed2p, _ := NewEDP(freq.CoarseSpace(), model, 2)
	r1, err := Run(sys, specs, edp, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sys, specs, ed2p, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	if r2.TimeNS >= r1.TimeNS {
		t.Errorf("ED²P (%.0f ms) not faster than EDP (%.0f ms)", r2.TimeNS/1e6, r1.TimeNS/1e6)
	}
	if r2.EnergyJ <= r1.EnergyJ {
		t.Errorf("ED²P (%.0f mJ) not more energy-hungry than EDP (%.0f mJ)", r2.EnergyJ*1e3, r1.EnergyJ*1e3)
	}
}
