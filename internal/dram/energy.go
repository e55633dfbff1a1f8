package dram

import (
	"fmt"
	"math"

	"mcdvfs/internal/freq"
)

// RoundCount converts a fractional expected event count (accesses scaled by
// a rate or mix fraction) to the nearest integer event count. This is the
// single rounding rule for all count derivation: the previous inline
// `int(x + 0.5)` idiom mis-rounds whenever x + 0.5 is not exactly
// representable — for counts at or above 2^52 the addition itself rounds to
// nearest-even and can push an exact integer count up by one — so large
// grids accumulated inconsistent totals. math.Round has no intermediate
// addition and is exact for every representable non-negative count. Callers
// pass a non-negative x, so the count is non-negative too.
func RoundCount(x float64) int { return int(math.Round(x)) }

// Counts tallies the command events issued over an interval, the inputs to
// DRAMPower-style energy accounting. Every field is non-negative.
type Counts struct {
	Activates int // activate+precharge pairs (row misses)
	Reads     int // read bursts
	Writes    int // write bursts
	Refreshes int // all-bank refresh commands
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Activates += other.Activates
	c.Reads += other.Reads
	c.Writes += other.Writes
	c.Refreshes += other.Refreshes
}

// EnergyModel computes DRAM energy from event counts and elapsed time,
// following the structure of the DRAMPower tool the paper integrates into
// gem5: per-event energies plus background power integrated over time.
type EnergyModel struct {
	dev Device
}

// NewEnergyModel validates the device and builds an energy model.
func NewEnergyModel(dev Device) (*EnergyModel, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	return &EnergyModel{dev: dev}, nil
}

// Device returns the modeled device.
func (m *EnergyModel) Device() Device { return m.dev }

// BackgroundPowerW returns the background power at clock f: the static
// floor plus clocked standby scaling linearly with frequency, plus the
// amortized refresh power (refresh energy is charged continuously because
// refresh must run regardless of traffic).
func (m *EnergyModel) BackgroundPowerW(f freq.MHz) (float64, error) {
	if err := m.dev.CheckClock(f); err != nil {
		return 0, err
	}
	clocked := m.dev.PBgClockedW * float64(f/m.dev.FMax)
	refresh := m.dev.ERefJ / (m.dev.TREFIns * 1e-9)
	return m.dev.PBgStaticW + clocked + refresh, nil
}

// Energy returns the joules consumed over an interval of durationNS at
// clock f given the event counts.
func (m *EnergyModel) Energy(f freq.MHz, counts Counts, durationNS float64) (float64, error) {
	if durationNS < 0 {
		return 0, fmt.Errorf("dram: negative duration %v", durationNS)
	}
	bg, err := m.BackgroundPowerW(f)
	if err != nil {
		return 0, err
	}
	e := bg * durationNS * 1e-9
	e += float64(counts.Activates) * m.dev.EActPreJ
	e += float64(counts.Reads) * m.dev.ERdBurstJ
	e += float64(counts.Writes) * m.dev.EWrBurstJ
	// Refresh commands actually issued are already covered by the amortized
	// background term; counting them again would double-charge, so explicit
	// refresh counts carry only the delta between actual and amortized
	// issue rate, which is zero in steady state. We therefore ignore
	// counts.Refreshes here and expose them for validation only.
	return e, nil
}

// EnergyCoeffs packs the per-clock invariants of the energy model — the
// background power at the clock plus the (clock-invariant) per-event
// energies — hoisted once per operating point for batch accounting.
//
// EnergyJ mirrors EnergyModel.Energy operation-for-operation (same term
// order and association), so results are bit-identical for non-negative
// durations; TestEnergyCoeffsMatchModel pins the equivalence. Inputs are
// not validated here.
type EnergyCoeffs struct {
	BackgroundW float64 // background power at the clock, incl. amortized refresh
	EActPreJ    float64
	ERdBurstJ   float64
	EWrBurstJ   float64
}

// CoeffsAt hoists the energy-model invariants for clock f.
func (m *EnergyModel) CoeffsAt(f freq.MHz) (EnergyCoeffs, error) {
	bg, err := m.BackgroundPowerW(f)
	if err != nil {
		return EnergyCoeffs{}, err
	}
	return EnergyCoeffs{
		BackgroundW: bg,
		EActPreJ:    m.dev.EActPreJ,
		ERdBurstJ:   m.dev.ERdBurstJ,
		EWrBurstJ:   m.dev.EWrBurstJ,
	}, nil
}

// EnergyJ is the hoisted EnergyModel.Energy: joules over durationNS at the
// hoisted clock given the event counts. For a non-negative durationNS the
// result is non-negative.
func (c EnergyCoeffs) EnergyJ(counts Counts, durationNS float64) float64 {
	e := c.BackgroundW * durationNS * 1e-9
	e += float64(counts.Activates) * c.EActPreJ
	e += float64(counts.Reads) * c.ERdBurstJ
	e += float64(counts.Writes) * c.EWrBurstJ
	return e
}
