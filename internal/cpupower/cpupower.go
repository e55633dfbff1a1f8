// Package cpupower implements the paper's empirical CPU power model.
//
// The paper measured a PandaBoard (OMAP4430, Cortex-A9) with a bench
// multimeter and reduced the measurements to a three-component analytic
// model (Section III-B):
//
//   - Dynamic power: consumed only while the core is computing. Scales
//     quadratically with supply voltage and linearly with clock frequency
//     (P ∝ V²f), anchored at a measured peak at the maximum operating point.
//   - Background power: consumed by idle clocked units whenever the core is
//     powered and clocked but not computing (and also under computation).
//     Because it is clocked, it scales like dynamic power (∝ V²f).
//   - Leakage power: up to ~30% of peak power, linearly proportional to
//     supply voltage, and independent of frequency. It is burned for the
//     whole time the core is powered.
//
// This package implements exactly that model. The defaults are calibrated
// so that the full-system characterization reproduces the paper's reported
// shapes (e.g. gobmk inefficiency ≈1.5 at the slowest settings and ≈1.65 at
// the fastest); see DESIGN.md for the calibration notes.
package cpupower

import (
	"fmt"

	"mcdvfs/internal/freq"
)

// Params configures the CPU power model. All powers are the component's
// value at the maximum operating point (FMax, VMax).
type Params struct {
	// PeakDynamicW is dynamic power at (FMax, VMax) with activity 1.0.
	PeakDynamicW float64
	// BackgroundW is clocked idle power at (FMax, VMax).
	BackgroundW float64
	// LeakageW is leakage power at VMax.
	LeakageW float64
	// FMax and VMax anchor the scaling laws.
	FMax freq.MHz
	VMax freq.Volts
	// OPPs maps a frequency to its supply voltage.
	OPPs *freq.OPPTable
}

// DefaultParams returns the calibrated model for the emulated A15-class
// mobile core with the paper's 100–1000 MHz, 0.85–1.25 V OPP range.
func DefaultParams() Params {
	return Params{
		PeakDynamicW: 2.2,
		BackgroundW:  0.15,
		LeakageW:     0.10,
		FMax:         freq.CPUMaxMHz,
		VMax:         1.25,
		OPPs:         freq.DefaultCPUOPPs(),
	}
}

// LittleParams returns a LITTLE (A7-class) companion-core model for
// big.LITTLE-style studies: a quarter of the big core's peak dynamic power
// at a 600 MHz ceiling with a lower voltage range. The paper's
// introduction names ARM big.LITTLE as one of the energy-performance
// trade-offs next-generation devices expose; the heterocmp experiment uses
// this model to study when the LITTLE core wins under an inefficiency
// budget.
func LittleParams() Params {
	return Params{
		PeakDynamicW: 0.45,
		BackgroundW:  0.05,
		LeakageW:     0.03,
		FMax:         600,
		VMax:         1.05,
		OPPs:         freq.LinearOPPTable(freq.Ladder(100, 600, 100), 0.70, 1.05),
	}
}

// Model evaluates CPU power and energy at arbitrary operating points.
type Model struct {
	p Params
}

// New validates params and builds a model.
func New(p Params) (*Model, error) {
	if p.PeakDynamicW <= 0 || p.BackgroundW < 0 || p.LeakageW < 0 {
		return nil, fmt.Errorf("cpupower: non-physical power parameters %+v", p)
	}
	if p.FMax <= 0 || p.VMax <= 0 {
		return nil, fmt.Errorf("cpupower: missing FMax/VMax anchors")
	}
	if p.OPPs == nil {
		return nil, fmt.Errorf("cpupower: missing OPP table")
	}
	return &Model{p: p}, nil
}

// MustNew is New for static configuration; it panics on invalid params.
func MustNew(p Params) *Model {
	m, err := New(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Params returns the model's configuration.
func (m *Model) Params() Params { return m.p }

// Breakdown is instantaneous CPU power split into the model's components.
type Breakdown struct {
	DynamicW    float64
	BackgroundW float64
	LeakageW    float64
}

// TotalW is the sum of all components.
func (b Breakdown) TotalW() float64 { return b.DynamicW + b.BackgroundW + b.LeakageW }

// Power returns the power breakdown at frequency f with the given activity
// factor (fraction of cycles doing useful work, in [0,1]). The voltage is
// looked up from the OPP table; frequencies outside the table are an error.
func (m *Model) Power(f freq.MHz, activity float64) (Breakdown, error) {
	if activity < 0 || activity > 1 {
		return Breakdown{}, fmt.Errorf("cpupower: activity %v outside [0,1]", activity)
	}
	v, err := m.p.OPPs.VoltageAt(f)
	if err != nil {
		return Breakdown{}, err
	}
	fr := float64(f / m.p.FMax)
	vr := float64(v / m.p.VMax)
	clocked := fr * vr * vr // the V²f scaling shared by dynamic and background
	return Breakdown{
		DynamicW:    m.p.PeakDynamicW * clocked * activity,
		BackgroundW: m.p.BackgroundW * clocked,
		LeakageW:    m.p.LeakageW * vr,
	}, nil
}

// Energy integrates the model over an interval of durationNS nanoseconds at
// frequency f and the given average activity, returning joules.
func (m *Model) Energy(f freq.MHz, activity, durationNS float64) (float64, error) {
	if durationNS < 0 {
		return 0, fmt.Errorf("cpupower: negative duration %v", durationNS)
	}
	b, err := m.Power(f, activity)
	if err != nil {
		return 0, err
	}
	return b.TotalW() * durationNS * 1e-9, nil
}

// Coeffs packs the per-frequency invariants of the power model — the
// component powers with the V²f scaling already applied — hoisted once per
// operating point so energy can be evaluated per sample without repeating
// the OPP voltage lookup and scaling-law arithmetic.
//
// EnergyJ mirrors Model.Energy operation-for-operation (same association
// order), so for activities in [0,1] and non-negative durations the results
// are bit-identical; TestCoeffsMatchModel pins the equivalence. Inputs are
// not validated here.
type Coeffs struct {
	PeakClockedW float64 // PeakDynamicW · (f/FMax)(v/VMax)²; scale by activity
	BackgroundW  float64 // clocked idle power at the operating point
	LeakageW     float64 // leakage power at the operating point's voltage
}

// CoeffsAt hoists the power-model invariants for frequency f.
func (m *Model) CoeffsAt(f freq.MHz) (Coeffs, error) {
	v, err := m.p.OPPs.VoltageAt(f)
	if err != nil {
		return Coeffs{}, err
	}
	fr := float64(f / m.p.FMax)
	vr := float64(v / m.p.VMax)
	clocked := fr * vr * vr
	return Coeffs{
		PeakClockedW: m.p.PeakDynamicW * clocked,
		BackgroundW:  m.p.BackgroundW * clocked,
		LeakageW:     m.p.LeakageW * vr,
	}, nil
}

// EnergyJ is the hoisted Model.Energy: joules over durationNS at the
// hoisted operating point with the given average activity. For activity in
// [0, 1] and a non-negative durationNS the result is non-negative.
func (c Coeffs) EnergyJ(activity, durationNS float64) float64 {
	dyn := c.PeakClockedW * activity
	return (dyn + c.BackgroundW + c.LeakageW) * durationNS * 1e-9
}
