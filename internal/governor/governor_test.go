package governor

import (
	"fmt"
	"math"
	"testing"

	"mcdvfs/internal/dvfsm"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/workload"
)

func testSystem(t *testing.T) *sim.System {
	t.Helper()
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func testSpecs(t *testing.T, name string, n int) []workload.SampleSpec {
	t.Helper()
	specs := workload.MustByName(name).MustRealize()
	if n > 0 && n < len(specs) {
		specs = specs[:n]
	}
	return specs
}

func budgetGov(t *testing.T, budget, threshold float64, search SearchStart, stability bool) *Budget {
	t.Helper()
	model, err := NewSimModel(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewBudget(BudgetConfig{
		Budget:       budget,
		Threshold:    threshold,
		Space:        freq.CoarseSpace(),
		Model:        model,
		Search:       search,
		UseStability: stability,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStaticGovernors(t *testing.T) {
	sp := freq.CoarseSpace()
	sys := testSystem(t)
	specs := testSpecs(t, "gobmk", 10)

	perf, err := Run(sys, specs, NewPerformance(sp), DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	save, err := Run(sys, specs, NewPowersave(sp), DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	if perf.TimeNS >= save.TimeNS {
		t.Errorf("performance governor (%v) not faster than powersave (%v)", perf.TimeNS, save.TimeNS)
	}
	if perf.Transitions != 0 || save.Transitions != 0 {
		t.Errorf("static governors transitioned: %d, %d", perf.Transitions, save.Transitions)
	}
	for _, st := range perf.Schedule {
		if st != sp.Max() {
			t.Fatalf("performance governor ran at %v", st)
		}
	}
	user, err := Run(sys, specs, NewUserspace(freq.Setting{CPU: 500, Mem: 400}), DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	if user.Schedule[0] != (freq.Setting{CPU: 500, Mem: 400}) {
		t.Errorf("userspace governor ran at %v", user.Schedule[0])
	}
}

func TestBudgetGovernorStaysWithinBudget(t *testing.T) {
	// Verify the paper's Figure 10 check: the governor keeps whole-run
	// inefficiency within the budget. Whole-run Emin is approximated by
	// the minimum pinned-setting energy, which upper-bounds true Emin, so
	// the check is conservative with a small tolerance for noise and
	// tuning energy.
	sys := testSystem(t)
	specs := testSpecs(t, "gobmk", 0)
	sp := freq.CoarseSpace()

	eminRun := math.Inf(1)
	for _, st := range sp.Settings() {
		total := 0.0
		for _, spec := range specs {
			m, err := sys.SimulateSample(spec, st)
			if err != nil {
				t.Fatal(err)
			}
			total += m.EnergyJ()
		}
		if total < eminRun {
			eminRun = total
		}
	}

	for _, budget := range []float64{1.1, 1.3, 1.6} {
		gov := budgetGov(t, budget, 0.03, FromMax, false)
		res, err := Run(sys, specs, gov, DefaultOverhead())
		if err != nil {
			t.Fatal(err)
		}
		ineff := res.EnergyJ / eminRun
		if ineff > budget*1.05 {
			t.Errorf("budget %v: achieved whole-run inefficiency %.3f", budget, ineff)
		}
	}
}

func TestBudgetGovernorPerformanceImprovesWithBudget(t *testing.T) {
	sys := testSystem(t)
	specs := testSpecs(t, "gobmk", 0)
	prev := 0.0
	for i, budget := range []float64{1.0, 1.3, 1.6} {
		gov := budgetGov(t, budget, 0.03, FromMax, false)
		res, err := Run(sys, specs, gov, DefaultOverhead())
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.TimeNS > prev*1.02 {
			t.Errorf("budget %v slower (%v) than smaller budget (%v)", budget, res.TimeNS, prev)
		}
		prev = res.TimeNS
	}
}

func TestHigherThresholdFewerTransitions(t *testing.T) {
	sys := testSystem(t)
	specs := testSpecs(t, "gobmk", 0)
	g1 := budgetGov(t, 1.3, 0.01, FromMax, false)
	r1, err := Run(sys, specs, g1, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	g5 := budgetGov(t, 1.3, 0.05, FromMax, false)
	r5, err := Run(sys, specs, g5, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	if r5.Transitions > r1.Transitions {
		t.Errorf("5%% threshold made more transitions (%d) than 1%% (%d)", r5.Transitions, r1.Transitions)
	}
}

func TestLocalSearchEvaluatesFewerSettings(t *testing.T) {
	sys := testSystem(t)
	specs := testSpecs(t, "milc", 60)
	full := budgetGov(t, 1.3, 0.03, FromMax, false)
	rFull, err := Run(sys, specs, full, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	local := budgetGov(t, 1.3, 0.03, FromPrevious, false)
	rLocal, err := Run(sys, specs, local, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	if rLocal.AvgSearchedPerTune() >= rFull.AvgSearchedPerTune() {
		t.Errorf("local search evaluated %.1f settings/tune, full %.1f",
			rLocal.AvgSearchedPerTune(), rFull.AvgSearchedPerTune())
	}
	// The local search must not sacrifice much performance.
	if rLocal.TimeNS > rFull.TimeNS*1.10 {
		t.Errorf("local search %.3gns much slower than full %.3gns", rLocal.TimeNS, rFull.TimeNS)
	}
}

func TestStabilitySkipReducesSearches(t *testing.T) {
	sys := testSystem(t)
	specs := testSpecs(t, "libquantum", 120) // long stable phases
	noSkip := budgetGov(t, 1.3, 0.05, FromMax, false)
	rNo, err := Run(sys, specs, noSkip, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	skip := budgetGov(t, 1.3, 0.05, FromMax, true)
	rSkip, err := Run(sys, specs, skip, DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	if rSkip.Tunes >= rNo.Tunes {
		t.Errorf("stability prediction did not reduce tunes: %d vs %d", rSkip.Tunes, rNo.Tunes)
	}
	if rSkip.SettingsSearched >= rNo.SettingsSearched {
		t.Errorf("stability prediction did not reduce search work: %d vs %d",
			rSkip.SettingsSearched, rNo.SettingsSearched)
	}
}

func TestBudgetConfigValidation(t *testing.T) {
	model, _ := NewSimModel(sim.DefaultConfig())
	base := BudgetConfig{Budget: 1.3, Threshold: 0.03, Space: freq.CoarseSpace(), Model: model}
	bad := []func(BudgetConfig) BudgetConfig{
		func(c BudgetConfig) BudgetConfig { c.Budget = 0.9; return c },
		func(c BudgetConfig) BudgetConfig { c.Budget = math.NaN(); return c },
		func(c BudgetConfig) BudgetConfig { c.Threshold = 1; return c },
		func(c BudgetConfig) BudgetConfig { c.Threshold = -0.1; return c },
		func(c BudgetConfig) BudgetConfig { c.Space = nil; return c },
		func(c BudgetConfig) BudgetConfig { c.Model = nil; return c },
	}
	for i, mut := range bad {
		if _, err := NewBudget(mut(base)); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewBudget(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestRunChargesOverheads(t *testing.T) {
	sys := testSystem(t)
	specs := testSpecs(t, "gobmk", 12)
	gov := budgetGov(t, 1.3, 0.01, FromMax, false)
	oh := DefaultOverhead()
	res, err := Run(sys, specs, gov, oh)
	if err != nil {
		t.Fatal(err)
	}
	wantNS := float64(res.SettingsSearched)*oh.PerSettingNS + float64(res.Transitions)*oh.TransitionNS
	if math.Abs(res.OverheadNS-wantNS) > 1e-6 {
		t.Errorf("overhead ns = %v, want %v", res.OverheadNS, wantNS)
	}
	if res.Tunes == 0 || res.SettingsSearched == 0 {
		t.Error("budget governor never searched")
	}
	// Default overhead reproduces the paper's full-tune totals.
	if got := 70*oh.PerSettingNS + oh.TransitionNS; got != 500_000 {
		t.Errorf("70-setting tune = %v ns, want 500µs", got)
	}
	if got := 70*oh.PerSettingJ + oh.TransitionJ; math.Abs(got-30e-6) > 1e-12 {
		t.Errorf("70-setting tune = %v J, want 30µJ", got)
	}
}

// errCoster always fails, exercising RunWith's error path.
type errCoster struct{}

func (errCoster) Cost(_, _ freq.Setting) (float64, float64, error) {
	return 0, 0, errForced
}

var errForced = fmt.Errorf("forced transition error")

func TestRunWithTransitionCoster(t *testing.T) {
	sys := testSystem(t)
	specs := testSpecs(t, "gobmk", 16)
	gov := budgetGov(t, 1.3, 0.01, FromMax, false)
	seq := dvfsm.MustNew(dvfsm.DefaultParams())
	res, err := RunWith(sys, specs, gov, DefaultOverhead(), seq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transitions == 0 {
		t.Fatal("fixture made no transitions")
	}
	// Overhead must include the physical transition costs, not the fixed
	// Overhead numbers: with per-transition costs varying by voltage
	// delta, the total will differ from transitions x fixed cost unless
	// by coincidence; just require positive and sane.
	searchNS := float64(res.SettingsSearched) * DefaultOverhead().PerSettingNS
	transNS := res.OverheadNS - searchNS
	if transNS <= 0 {
		t.Errorf("physical transition overhead %v, want positive", transNS)
	}
	perTrans := transNS / float64(res.Transitions)
	if perTrans < 1_000 || perTrans > 500_000 {
		t.Errorf("per-transition cost %v ns implausible", perTrans)
	}
}

func TestRunWithCosterErrorPropagates(t *testing.T) {
	sys := testSystem(t)
	specs := testSpecs(t, "gobmk", 16)
	gov := budgetGov(t, 1.3, 0.01, FromMax, false)
	if _, err := RunWith(sys, specs, gov, DefaultOverhead(), errCoster{}); err == nil {
		t.Error("coster error swallowed")
	}
}

func TestRunEmptyWorkload(t *testing.T) {
	sys := testSystem(t)
	if _, err := Run(sys, nil, NewPerformance(freq.CoarseSpace()), DefaultOverhead()); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestRunScheduleLength(t *testing.T) {
	sys := testSystem(t)
	specs := testSpecs(t, "bzip2", 20)
	res, err := Run(sys, specs, budgetGov(t, 1.3, 0.03, FromMax, false), DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule) != 20 || len(res.PerSample) != 20 {
		t.Errorf("schedule/persample lengths %d/%d, want 20", len(res.Schedule), len(res.PerSample))
	}
}
