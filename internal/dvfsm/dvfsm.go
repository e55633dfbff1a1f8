// Package dvfsm models the DVFS controller hardware the paper adds to
// gem5 (Figure 1): the sequencing and latency of actual frequency/voltage
// transitions.
//
// A CPU DVFS transition is a two-step sequence with an ordering constraint:
//
//   - raising frequency: the regulator must ramp the voltage UP first
//     (the core cannot run fast at low voltage), then the PLL relocks;
//   - lowering frequency: the PLL relocks DOWN first, then the voltage
//     ramps down (running slow at high voltage is safe, just wasteful).
//
// The voltage ramp time is the voltage delta over the regulator's slew
// rate; the PLL relock is a fixed lock time. Memory DFS transitions pay
// the controller drain + relock + retraining but no voltage ramp (LPDDR3
// rails are fixed). The paper cites "10s of microseconds" for commercial
// PLL transitions and points at nanosecond-scale on-chip regulators
// (Kim et al.) as the future; both are expressible as Params.
package dvfsm

import (
	"fmt"
	"math"

	"mcdvfs/internal/freq"
)

// Params describes the transition hardware.
type Params struct {
	// SlewUVPerUS is the voltage regulator slew rate in microvolts per
	// microsecond (typical buck converters: ~5000 µV/µs).
	SlewUVPerUS float64
	// PLLLockNS is the PLL relock time after a frequency change.
	PLLLockNS float64
	// MemDrainNS is the memory-controller quiesce time before a memory
	// clock change (in-flight requests must drain).
	MemDrainNS float64
	// MemRetrainNS is the DLL/interface retraining time after a memory
	// clock change.
	MemRetrainNS float64
	// CPUOPPs maps CPU frequencies to voltages for ramp computation.
	CPUOPPs *freq.OPPTable
	// StallPowerW is the power burned while the component is stalled
	// mid-transition, used for transition energy.
	StallPowerW float64
}

// DefaultParams returns commercial-grade transition hardware matching the
// paper's "10s of microseconds" PLL observation.
func DefaultParams() Params {
	return Params{
		SlewUVPerUS:  5000,
		PLLLockNS:    20_000,
		MemDrainNS:   10_000,
		MemRetrainNS: 25_000,
		CPUOPPs:      freq.DefaultCPUOPPs(),
		StallPowerW:  0.5,
	}
}

// FastParams returns next-generation on-chip-regulator hardware
// (nanosecond-scale DVFS, the paper's reference to Kim et al.).
func FastParams() Params {
	p := DefaultParams()
	p.SlewUVPerUS = 2_000_000 // integrated regulator: ~2 V/µs
	p.PLLLockNS = 100
	p.MemDrainNS = 500
	p.MemRetrainNS = 1_000
	return p
}

// Sequencer computes transition costs.
type Sequencer struct {
	p Params
}

// New validates params and builds a sequencer.
func New(p Params) (*Sequencer, error) {
	switch {
	case p.SlewUVPerUS <= 0:
		return nil, fmt.Errorf("dvfsm: non-positive slew rate %v", p.SlewUVPerUS)
	case p.PLLLockNS < 0 || p.MemDrainNS < 0 || p.MemRetrainNS < 0:
		return nil, fmt.Errorf("dvfsm: negative transition latency")
	case p.CPUOPPs == nil:
		return nil, fmt.Errorf("dvfsm: missing CPU OPP table")
	case p.StallPowerW < 0:
		return nil, fmt.Errorf("dvfsm: negative stall power")
	}
	return &Sequencer{p: p}, nil
}

// MustNew is New for static configuration.
func MustNew(p Params) *Sequencer {
	s, err := New(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Step is one phase of a transition sequence.
type Step struct {
	Name string
	NS   float64
}

// Transition is a fully sequenced setting change.
type Transition struct {
	From, To freq.Setting
	Steps    []Step
}

// TotalNS returns the transition's total stall time. CPU and memory
// sequences overlap (independent domains), so the total is the longer of
// the two component sequences.
func (t Transition) TotalNS() float64 {
	var cpuNS, memNS float64
	for _, s := range t.Steps {
		if s.Name == "mem-drain" || s.Name == "mem-relock" || s.Name == "mem-retrain" {
			memNS += s.NS
		} else {
			cpuNS += s.NS
		}
	}
	return math.Max(cpuNS, memNS)
}

// Plan sequences a transition between two settings. A no-op change
// returns an empty transition.
func (s *Sequencer) Plan(from, to freq.Setting) (Transition, error) {
	tr := Transition{From: from, To: to}
	if from.CPU != to.CPU {
		vFrom, err := s.p.CPUOPPs.VoltageAt(from.CPU)
		if err != nil {
			return Transition{}, fmt.Errorf("dvfsm: %w", err)
		}
		vTo, err := s.p.CPUOPPs.VoltageAt(to.CPU)
		if err != nil {
			return Transition{}, fmt.Errorf("dvfsm: %w", err)
		}
		rampNS := math.Abs(float64(vTo-vFrom)) * 1e6 / s.p.SlewUVPerUS * 1e3
		if to.CPU > from.CPU {
			// Voltage first, then frequency.
			tr.Steps = append(tr.Steps,
				Step{Name: "vdd-ramp-up", NS: rampNS},
				Step{Name: "pll-relock", NS: s.p.PLLLockNS},
			)
		} else {
			// Frequency first, then voltage.
			tr.Steps = append(tr.Steps,
				Step{Name: "pll-relock", NS: s.p.PLLLockNS},
				Step{Name: "vdd-ramp-down", NS: rampNS},
			)
		}
	}
	if from.Mem != to.Mem {
		tr.Steps = append(tr.Steps,
			Step{Name: "mem-drain", NS: s.p.MemDrainNS},
			Step{Name: "mem-relock", NS: s.p.PLLLockNS},
			Step{Name: "mem-retrain", NS: s.p.MemRetrainNS},
		)
	}
	return tr, nil
}

// Cost returns the transition's stall time and energy.
func (s *Sequencer) Cost(from, to freq.Setting) (ns, joules float64, err error) {
	tr, err := s.Plan(from, to)
	if err != nil {
		return 0, 0, err
	}
	ns = tr.TotalNS()
	return ns, s.p.StallPowerW * ns * 1e-9, nil
}
