// Package governor implements online frequency governors over the mcdvfs
// simulator: the loop a real system would run, deciding each interval's
// (CPU, memory) setting from past observations only.
//
// The paper characterizes offline what an ideal algorithm could do and
// sketches how real governors should behave (Sections II-C, VI, VII):
// filter settings by an inefficiency budget, pick the best performer,
// exploit performance clusters to tune less often, start searches from the
// previous setting instead of from the maximum (unlike CoScale), and
// predict stable-region lengths to skip tuning entirely. This package makes
// those sketches runnable and measurable.
//
// Governors see two inputs per interval: the previous interval's hardware
// counters (time, energy, CPI, MPKI — exact in simulation) and a component
// power/performance model for candidate settings, mirroring the paper's
// assumption that Emin and candidate energies come from "power models (or
// tools)". They never see the future.
package governor

import (
	"fmt"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/workload"
)

// Observation is what the platform reports about one completed interval.
type Observation struct {
	Sample  int
	Setting freq.Setting
	TimeNS  float64
	EnergyJ float64
	CPI     float64
	MPKI    float64
}

// Model predicts the behaviour of a workload interval at a candidate
// setting. It is the governor-facing stand-in for the paper's component
// power models.
type Model interface {
	// Predict returns predicted execution time and energy for a sample
	// with the given profile at the candidate setting.
	Predict(profile workload.SampleSpec, st freq.Setting) (timeNS, energyJ float64, err error)
}

// SimModel implements Model with the noiseless simulator: a "perfect
// model" baseline, isolating governor policy quality from model error.
type SimModel struct {
	sys *sim.System
}

// NewSimModel builds the perfect-model predictor of the platform cfg
// describes, without its measurement noise.
func NewSimModel(cfg sim.Config) (*SimModel, error) {
	cfg.MeasurementNoise = 0
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return &SimModel{sys: sys}, nil
}

// Predict implements Model.
func (m *SimModel) Predict(profile workload.SampleSpec, st freq.Setting) (float64, float64, error) {
	s, err := m.sys.SimulateSample(profile, st)
	if err != nil {
		return 0, 0, err
	}
	return s.TimeNS, s.EnergyJ(), nil
}

// Observer is an optional interface a Model can implement to learn from
// the intervals the governor actually ran. The Budget governor feeds every
// completed interval's counters to an observing model before deciding —
// this is how the learned cross-component model (internal/model) replaces
// the oracle.
type Observer interface {
	ObserveCounters(st freq.Setting, instructions uint64, timeNS, mpki, rowHitRate, writeFrac float64) error
}

// Decision is a governor's choice for the next interval.
type Decision struct {
	Setting freq.Setting
	// Searched counts candidate settings the governor evaluated to reach
	// this decision; 0 means it skipped tuning.
	Searched int
}

// Governor decides the setting for each interval.
//
// Decide receives the previous interval's observation and profile counters
// (nil before the first interval) and returns the setting for the next
// interval.
type Governor interface {
	Name() string
	Decide(prev *Observation, prevProfile *workload.SampleSpec) (Decision, error)
}

// Static always returns a fixed setting: the performance, powersave, and
// userspace governors of the Linux cpufreq framework.
type Static struct {
	name string
	st   freq.Setting
}

// NewPerformance pins the space's maximum setting.
func NewPerformance(space *freq.Space) *Static {
	return &Static{name: "performance", st: space.Max()}
}

// NewPowersave pins the space's minimum setting.
func NewPowersave(space *freq.Space) *Static {
	return &Static{name: "powersave", st: space.Min()}
}

// NewUserspace pins an arbitrary fixed setting.
func NewUserspace(st freq.Setting) *Static {
	return &Static{name: fmt.Sprintf("userspace(%v)", st), st: st}
}

// Name implements Governor.
func (s *Static) Name() string { return s.name }

// Decide implements Governor.
func (s *Static) Decide(*Observation, *workload.SampleSpec) (Decision, error) {
	return Decision{Setting: s.st}, nil
}
