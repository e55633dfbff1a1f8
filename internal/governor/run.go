package governor

import (
	"fmt"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/workload"
)

// Overhead models governor costs. The paper measures ~500 µs and ~30 µJ
// for a full 70-setting tune (inefficiency computation + search +
// hardware transition); we split that into a per-evaluated-setting search
// cost and a fixed per-transition hardware cost so partial searches and
// kept settings are charged fairly.
type Overhead struct {
	PerSettingNS float64
	PerSettingJ  float64
	TransitionNS float64
	TransitionJ  float64
}

// DefaultOverhead reproduces the paper's totals for a 70-setting search:
// 70 × 6 µs + 80 µs = 500 µs and 70 × 0.35 µJ + 5.5 µJ = 30 µJ.
func DefaultOverhead() Overhead {
	return Overhead{
		PerSettingNS: 6_000,
		PerSettingJ:  0.35e-6,
		TransitionNS: 80_000,
		TransitionJ:  5.5e-6,
	}
}

// Result summarizes an online run.
type Result struct {
	Governor string
	// Workload execution cost.
	TimeNS  float64
	EnergyJ float64
	// Governor overhead cost, already included in TimeNS/EnergyJ.
	OverheadNS       float64
	OverheadJ        float64
	Transitions      int
	Tunes            int // decisions that searched at least one setting
	SettingsSearched int
	Schedule         []freq.Setting
	PerSample        []Observation
}

// AvgSearchedPerTune returns the mean settings evaluated per search.
func (r Result) AvgSearchedPerTune() float64 {
	if r.Tunes == 0 {
		return 0
	}
	return float64(r.SettingsSearched) / float64(r.Tunes)
}

// TransitionCoster computes the stall time and energy of one hardware
// transition; internal/dvfsm provides physical implementations. When
// present it replaces Overhead's fixed per-transition numbers.
type TransitionCoster interface {
	Cost(from, to freq.Setting) (ns, joules float64, err error)
}

// Run drives a governor through a realized workload on the given system,
// charging overheads per evaluated setting and per hardware transition.
func Run(sys *sim.System, specs []workload.SampleSpec, gov Governor, oh Overhead) (Result, error) {
	return RunWith(sys, specs, gov, oh, nil)
}

// RunWith is Run with an optional physical transition-cost model.
func RunWith(sys *sim.System, specs []workload.SampleSpec, gov Governor, oh Overhead, tc TransitionCoster) (Result, error) {
	if len(specs) == 0 {
		return Result{}, fmt.Errorf("governor: empty workload")
	}
	res := Result{
		Governor:  gov.Name(),
		Schedule:  make([]freq.Setting, 0, len(specs)),
		PerSample: make([]Observation, 0, len(specs)),
	}
	var prevObs *Observation
	var prevSpec *workload.SampleSpec
	var current freq.Setting
	haveCurrent := false
	for i, spec := range specs {
		dec, err := gov.Decide(prevObs, prevSpec)
		if err != nil {
			return Result{}, fmt.Errorf("governor: sample %d: %w", i, err)
		}
		if dec.Searched > 0 {
			res.Tunes++
			res.SettingsSearched += dec.Searched
			res.OverheadNS += float64(dec.Searched) * oh.PerSettingNS
			res.OverheadJ += float64(dec.Searched) * oh.PerSettingJ
		}
		if haveCurrent && dec.Setting != current {
			res.Transitions++
			if tc != nil {
				ns, j, err := tc.Cost(current, dec.Setting)
				if err != nil {
					return Result{}, fmt.Errorf("governor: transition cost %v->%v: %w", current, dec.Setting, err)
				}
				res.OverheadNS += ns
				res.OverheadJ += j
			} else {
				res.OverheadNS += oh.TransitionNS
				res.OverheadJ += oh.TransitionJ
			}
		}
		current = dec.Setting
		haveCurrent = true

		m, err := sys.SimulateSample(spec, current)
		if err != nil {
			return Result{}, fmt.Errorf("governor: sample %d at %v: %w", i, current, err)
		}
		obs := Observation{
			Sample:  i,
			Setting: current,
			TimeNS:  m.TimeNS,
			EnergyJ: m.EnergyJ(),
			CPI:     m.CPI,
			MPKI:    m.MPKI,
		}
		res.TimeNS += m.TimeNS
		res.EnergyJ += m.EnergyJ()
		res.Schedule = append(res.Schedule, current)
		res.PerSample = append(res.PerSample, obs)

		prevObs = &res.PerSample[len(res.PerSample)-1]
		specCopy := spec
		prevSpec = &specCopy
	}
	res.TimeNS += res.OverheadNS
	res.EnergyJ += res.OverheadJ
	return res, nil
}
