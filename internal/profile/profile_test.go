package profile

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/governor"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

var (
	gridOnce sync.Once
	lbmGrid  *trace.Grid
	gridErr  error
)

func grid(t *testing.T) *trace.Grid {
	t.Helper()
	gridOnce.Do(func() {
		sys, err := sim.New(sim.DefaultConfig())
		if err != nil {
			gridErr = err
			return
		}
		lbmGrid, gridErr = trace.CollectContext(context.Background(), sys, workload.MustByName("lbm"), freq.CoarseSpace(), trace.CollectOptions{})
	})
	if gridErr != nil {
		t.Fatal(gridErr)
	}
	return lbmGrid
}

func buildProfile(t *testing.T) *Profile {
	t.Helper()
	p, err := Build(grid(t), 1.3, 0.05)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuildProducesValidProfile(t *testing.T) {
	p := buildProfile(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Benchmark != "lbm" || p.Budget != 1.3 || p.Threshold != 0.05 {
		t.Errorf("metadata: %+v", p)
	}
	if p.NumSamples() != grid(t).NumSamples() {
		t.Errorf("profile covers %d samples, grid has %d", p.NumSamples(), grid(t).NumSamples())
	}
	for i, r := range p.Regions {
		if r.ExpectedCPI <= 0 || r.ExpectedMPKI < 0 {
			t.Errorf("region %d expectations: %+v", i, r)
		}
		if len(r.SampleCPI) != r.End-r.Start+1 || len(r.SampleMPKI) != r.End-r.Start+1 {
			t.Errorf("region %d per-sample traces incomplete: %d/%d entries for %d samples",
				i, len(r.SampleCPI), len(r.SampleMPKI), r.End-r.Start+1)
		}
	}
}

func TestSettingAt(t *testing.T) {
	p := buildProfile(t)
	for _, r := range p.Regions {
		st, err := p.SettingAt(r.Start)
		if err != nil {
			t.Fatal(err)
		}
		if st != r.Setting {
			t.Errorf("SettingAt(%d) = %v, want %v", r.Start, st, r.Setting)
		}
	}
	// Past the end: last region's setting.
	last := p.Regions[len(p.Regions)-1]
	st, err := p.SettingAt(p.NumSamples() + 100)
	if err != nil {
		t.Fatal(err)
	}
	if st != last.Setting {
		t.Errorf("past-end setting %v, want %v", st, last.Setting)
	}
	if _, err := p.SettingAt(-1); err == nil {
		t.Error("negative sample accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := buildProfile(t)
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Regions, p.Regions) {
		t.Fatal("regions changed in round trip")
	}
}

func TestReadJSONRejectsBadProfiles(t *testing.T) {
	cases := []string{
		`{`,
		`{"benchmark":"","budget":1.3,"threshold":0.05,"sample_instructions":1,"regions":[{"start":0,"end":1}]}`,
		`{"benchmark":"x","budget":0.5,"threshold":0.05,"sample_instructions":1,"regions":[{"start":0,"end":1}]}`,
		`{"benchmark":"x","budget":1.3,"threshold":2,"sample_instructions":1,"regions":[{"start":0,"end":1}]}`,
		`{"benchmark":"x","budget":1.3,"threshold":0.05,"sample_instructions":1,"regions":[]}`,
		// gap between regions
		`{"benchmark":"x","budget":1.3,"threshold":0.05,"sample_instructions":1,"regions":[{"start":0,"end":1},{"start":3,"end":4}]}`,
		// inverted region
		`{"benchmark":"x","budget":1.3,"threshold":0.05,"sample_instructions":1,"regions":[{"start":0,"end":-1}]}`,
		// not starting at zero
		`{"benchmark":"x","budget":1.3,"threshold":0.05,"sample_instructions":1,"regions":[{"start":1,"end":2}]}`,
	}
	for i, c := range cases {
		if _, err := ReadJSON(bytes.NewBufferString(c)); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestProfileGovernorReplaysSchedule(t *testing.T) {
	p := buildProfile(t)
	gov, err := NewGovernor(p, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	specs := workload.MustByName("lbm").MustRealize()
	res, err := governor.Run(sys, specs, gov, governor.DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	// Replay must make exactly the profiled transitions, with zero search
	// cost.
	if res.Transitions != len(p.Regions)-1 {
		t.Errorf("transitions = %d, want %d", res.Transitions, len(p.Regions)-1)
	}
	if res.Tunes != 0 || res.SettingsSearched != 0 {
		t.Errorf("profile replay searched: %d tunes, %d settings", res.Tunes, res.SettingsSearched)
	}
	// And the schedule must match the profile exactly.
	for s, st := range res.Schedule {
		want, _ := p.SettingAt(s)
		if st != want {
			t.Fatalf("sample %d ran at %v, profile says %v", s, st, want)
		}
	}
}

func TestProfileGovernorBeatsSearchOnOverhead(t *testing.T) {
	p := buildProfile(t)
	profGov, err := NewGovernor(p, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	model, err := governor.NewSimModel(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	searchGov, err := governor.NewBudget(governor.BudgetConfig{
		Budget: 1.3, Threshold: 0.05, Space: freq.CoarseSpace(),
		Model: model, Search: governor.FromMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	specs := workload.MustByName("lbm").MustRealize()
	rProf, err := governor.Run(sys, specs, profGov, governor.DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	rSearch, err := governor.Run(sys, specs, searchGov, governor.DefaultOverhead())
	if err != nil {
		t.Fatal(err)
	}
	if rProf.OverheadNS >= rSearch.OverheadNS {
		t.Errorf("profile overhead %.2fms not below search overhead %.2fms",
			rProf.OverheadNS/1e6, rSearch.OverheadNS/1e6)
	}
}

func TestProfileGovernorNoFalseFallbacksOnSameApp(t *testing.T) {
	// Replaying a profile against the application it was built from must
	// not trigger drift fallbacks: intra-region phase variation is in the
	// per-sample traces, not drift.
	p := buildProfile(t)
	fallback, err := governor.NewBudget(governor.BudgetConfig{
		Budget: 1.3, Threshold: 0.05, Space: freq.CoarseSpace(),
		Model: mustModel(t), Search: governor.FromMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	gov, err := NewGovernor(p, fallback, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	specs := workload.MustByName("lbm").MustRealize()
	if _, err := governor.Run(sys, specs, gov, governor.DefaultOverhead()); err != nil {
		t.Fatal(err)
	}
	if got := gov.FallbackIntervals(); got != 0 {
		t.Errorf("same-application replay fell back %d times", got)
	}
}

func TestProfileGovernorFallsBackOnDrift(t *testing.T) {
	// Replay an lbm profile against gobmk: counters diverge wildly, so a
	// drift-aware profile governor must hand control to its fallback.
	p := buildProfile(t)
	fallback, err := governor.NewBudget(governor.BudgetConfig{
		Budget: 1.3, Threshold: 0.05, Space: freq.CoarseSpace(),
		Model: mustModel(t), Search: governor.FromMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	gov, err := NewGovernor(p, fallback, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	specs := workload.MustByName("gobmk").MustRealize()
	if _, err := governor.Run(sys, specs, gov, governor.DefaultOverhead()); err != nil {
		t.Fatal(err)
	}
	if gov.FallbackIntervals() == 0 {
		t.Error("wrong-application profile never triggered the fallback")
	}
}

func TestNewGovernorValidation(t *testing.T) {
	if _, err := NewGovernor(nil, nil, 0); err == nil {
		t.Error("nil profile accepted")
	}
	p := buildProfile(t)
	if _, err := NewGovernor(p, nil, -1); err == nil {
		t.Error("negative tolerance accepted")
	}
	bad := *p
	bad.Regions = nil
	if _, err := NewGovernor(&bad, nil, 0); err == nil {
		t.Error("invalid profile accepted")
	}
}

func mustModel(t *testing.T) governor.Model {
	t.Helper()
	m, err := governor.NewSimModel(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}
