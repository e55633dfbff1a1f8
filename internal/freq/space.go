package freq

import "fmt"

// Setting is one joint operating choice: a CPU frequency and a memory
// frequency. It is the unit over which the paper's entire characterization —
// inefficiency, clusters, stable regions — is defined. Ladder frequencies
// are exact values, so settings compare with == and key maps.
type Setting struct {
	CPU MHz
	Mem MHz
}

// String renders the setting as "cpu/mem".
func (s Setting) String() string { return fmt.Sprintf("%v/%v", s.CPU, s.Mem) }

// Space is an enumerated set of settings, the cross product of a CPU ladder
// and a memory ladder. Settings are indexed by SettingID in a fixed order:
// CPU-major ascending, memory ascending within a CPU step.
type Space struct {
	cpu      []MHz
	mem      []MHz
	settings []Setting
	index    map[Setting]SettingID
}

// SettingID identifies a setting within one Space. IDs are dense [0, Len).
type SettingID int

// NewSpace builds the cross-product space of the two ladders.
func NewSpace(cpu, mem []MHz) *Space {
	if len(cpu) == 0 || len(mem) == 0 {
		panic("freq: empty ladder in setting space")
	}
	s := &Space{
		cpu:      append([]MHz(nil), cpu...),
		mem:      append([]MHz(nil), mem...),
		settings: make([]Setting, 0, len(cpu)*len(mem)),
		index:    make(map[Setting]SettingID, len(cpu)*len(mem)),
	}
	for _, fc := range s.cpu {
		for _, fm := range s.mem {
			st := Setting{CPU: fc, Mem: fm}
			s.index[st] = SettingID(len(s.settings))
			s.settings = append(s.settings, st)
		}
	}
	return s
}

// Len returns the number of settings in the space.
func (s *Space) Len() int { return len(s.settings) }

// Setting returns the setting with the given ID.
func (s *Space) Setting(id SettingID) Setting { return s.settings[id] }

// Settings returns all settings in ID order. The returned slice is shared;
// callers must not modify it.
func (s *Space) Settings() []Setting { return s.settings }

// ID returns the SettingID for st and whether st is a member of the space.
func (s *Space) ID(st Setting) (SettingID, bool) {
	id, ok := s.index[st]
	return id, ok
}

// CPULadder returns the CPU frequency ladder (shared slice; do not modify).
func (s *Space) CPULadder() []MHz { return s.cpu }

// MemLadder returns the memory frequency ladder (shared slice; do not modify).
func (s *Space) MemLadder() []MHz { return s.mem }

// Max returns the setting with the highest CPU and memory frequency.
func (s *Space) Max() Setting {
	return Setting{CPU: s.cpu[len(s.cpu)-1], Mem: s.mem[len(s.mem)-1]}
}

// Min returns the setting with the lowest CPU and memory frequency.
func (s *Space) Min() Setting {
	return Setting{CPU: s.cpu[0], Mem: s.mem[0]}
}

// Platform default ladders, as configured in the paper (Section III):
// CPU 100–1000 MHz and memory 200–800 MHz at 100 MHz steps for the coarse
// 70-setting space; 30 MHz CPU and 40 MHz memory steps for the fine
// 496-setting space used in the step-size sensitivity study.
const (
	CPUMinMHz MHz = 100
	CPUMaxMHz MHz = 1000
	MemMinMHz MHz = 200
	MemMaxMHz MHz = 800
)

// CoarseSpace returns the paper's 10×7 = 70-setting space
// (100 MHz steps on both domains).
func CoarseSpace() *Space {
	return NewSpace(
		Ladder(CPUMinMHz, CPUMaxMHz, 100),
		Ladder(MemMinMHz, MemMaxMHz, 100),
	)
}

// FineSpace returns the paper's 31×16 = 496-setting space
// (30 MHz CPU steps, 40 MHz memory steps).
func FineSpace() *Space {
	return NewSpace(
		Ladder(CPUMinMHz, CPUMaxMHz, 30),
		Ladder(MemMinMHz, MemMaxMHz, 40),
	)
}

// Default CPU voltage endpoints: the calibrated linear V(f) law runs from
// CPUVMin at 100 MHz to the paper's 1.25 V ceiling at 1000 MHz.
const (
	CPUVMin Volts = 0.78
	CPUVMax Volts = 1.25
)

// DefaultCPUOPPs returns the paper's CPU OPP table: 100–1000 MHz with
// voltage rising linearly to 1.25 V at the top frequency.
func DefaultCPUOPPs() *OPPTable {
	return LinearOPPTable(Ladder(CPUMinMHz, CPUMaxMHz, 100), CPUVMin, CPUVMax)
}

// FineCPUOPPs returns the fine-step CPU OPP table with the same linear
// voltage law as DefaultCPUOPPs.
func FineCPUOPPs() *OPPTable {
	return LinearOPPTable(Ladder(CPUMinMHz, CPUMaxMHz, 30), CPUVMin, CPUVMax)
}
