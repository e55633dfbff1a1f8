// Package dram models the LPDDR3 memory device used by the paper's system:
// a single-channel, one-rank part driven with an open-page policy, whose
// clock can be scaled between 200 and 800 MHz while the supply rails stay
// fixed (VDD1 = 1.8 V, VDD2 = 1.2 V).
//
// The package provides three layers:
//
//   - Device: datasheet-style parameters — timing constraints in
//     nanoseconds, burst geometry, and energy coefficients derived from
//     IDD-style currents. Timing and current parameters scale with clock
//     frequency following the approach of Micron's technical notes, which
//     the paper adopts: core timings are fixed in nanoseconds (so their
//     cycle counts change with clock), burst duration is fixed in cycles
//     (so it shrinks in nanoseconds as the clock rises), and clocked
//     standby current scales with frequency.
//   - EnergyModel: DRAMPower-style event accounting (activate/precharge
//     pairs, read/write bursts, refresh, clocked + static background).
//   - Engine (engine.go): a command-level eight-bank state machine used to
//     validate the analytic latency model in internal/memctrl.
package dram

import (
	"fmt"

	"mcdvfs/internal/freq"
)

// Device holds datasheet-style parameters for one LPDDR3 part.
type Device struct {
	Name string

	// Geometry.
	BusBytes  int // data bus width in bytes (x32 part = 4)
	Banks     int // number of banks
	RowBytes  int // page (row) size in bytes
	BurstLen  int // beats per burst (BL8)
	LineBytes int // cache-line fill granularity per access (L2 line size)

	// Core timing constraints, fixed in nanoseconds across clock scaling.
	TRCDns  float64 // activate to column command
	TRPns   float64 // precharge period
	TCASns  float64 // column access (read latency portion fixed in ns)
	TRASns  float64 // minimum row open time
	TWRns   float64 // write recovery
	TRFCns  float64 // refresh cycle time
	TREFIns float64 // average refresh interval

	// Clock range.
	FMin, FMax freq.MHz

	// Supply rails (fixed; LPDDR3 scales frequency only).
	VDD1, VDD2 freq.Volts

	// Energy coefficients (joules per event), derived from IDD currents at
	// the rated clock. Per the Micron scaling notes these are approximately
	// clock-invariant: burst current rises with clock while burst time
	// shrinks, and activate energy is set by fixed-ns core timings.
	EActPreJ  float64 // one activate+precharge pair
	ERdBurstJ float64 // one read burst (BurstLen beats)
	EWrBurstJ float64 // one write burst
	ERefJ     float64 // one all-bank refresh command

	// Background power: PBgStaticW is the clock-independent floor
	// (self-refresh-exit standby, peripheral leakage); PBgClockedW is the
	// additional clocked standby power at FMax, scaling linearly with clock.
	PBgStaticW  float64
	PBgClockedW float64
}

// DefaultDevice returns the LPDDR3 single-channel, single-rank x32 part
// emulated throughout the reproduction, with magnitudes representative of
// Micron LPDDR3 datasheets (see DESIGN.md for the calibration notes).
func DefaultDevice() Device {
	return Device{
		Name:        "LPDDR3-1600-x32-1rank",
		BusBytes:    4,
		Banks:       8,
		RowBytes:    4096,
		BurstLen:    8,
		LineBytes:   64,
		TRCDns:      18,
		TRPns:       18,
		TCASns:      15,
		TRASns:      42,
		TWRns:       15,
		TRFCns:      130,
		TREFIns:     3900,
		FMin:        freq.MemMinMHz,
		FMax:        freq.MemMaxMHz,
		VDD1:        1.8,
		VDD2:        1.2,
		EActPreJ:    8.0e-9,
		ERdBurstJ:   2.0e-9,
		EWrBurstJ:   2.2e-9,
		ERefJ:       5.0e-9,
		PBgStaticW:  0.060,
		PBgClockedW: 0.160,
	}
}

// Validate reports the first non-physical parameter, if any.
func (d Device) Validate() error {
	switch {
	case d.BusBytes <= 0 || d.Banks <= 0 || d.RowBytes <= 0 || d.BurstLen <= 0:
		return fmt.Errorf("dram: non-positive geometry in %q", d.Name)
	case d.LineBytes <= 0 || d.LineBytes%(d.BusBytes*d.BurstLen) != 0:
		return fmt.Errorf("dram: line size %d not a positive multiple of burst bytes %d in %q",
			d.LineBytes, d.BusBytes*d.BurstLen, d.Name)
	case d.TRCDns <= 0 || d.TRPns <= 0 || d.TCASns <= 0 || d.TRASns <= 0:
		return fmt.Errorf("dram: non-positive core timing in %q", d.Name)
	case d.TRFCns <= 0 || d.TREFIns <= d.TRFCns:
		return fmt.Errorf("dram: refresh interval must exceed refresh cycle in %q", d.Name)
	case d.FMin <= 0 || d.FMax < d.FMin:
		return fmt.Errorf("dram: invalid clock range [%v, %v] in %q", d.FMin, d.FMax, d.Name)
	case d.EActPreJ < 0 || d.ERdBurstJ < 0 || d.EWrBurstJ < 0 || d.ERefJ < 0:
		return fmt.Errorf("dram: negative event energy in %q", d.Name)
	case d.PBgStaticW < 0 || d.PBgClockedW < 0:
		return fmt.Errorf("dram: negative background power in %q", d.Name)
	}
	return nil
}

// CheckClock returns an error if f is outside the device's clock range.
func (d Device) CheckClock(f freq.MHz) error {
	if f < d.FMin || f > d.FMax {
		return fmt.Errorf("dram: clock %v outside [%v, %v]", f, d.FMin, d.FMax)
	}
	return nil
}

// BurstNS returns the duration of one data burst at clock f. LPDDR3 is a
// double-data-rate interface: BurstLen beats take BurstLen/2 clocks.
func (d Device) BurstNS(f freq.MHz) float64 {
	return float64(d.BurstLen) / 2 * f.PeriodNS()
}

// BurstBytes returns the bytes transferred by one burst.
func (d Device) BurstBytes() int { return d.BusBytes * d.BurstLen }

// LineBursts returns the bursts needed to move one cache line.
func (d Device) LineBursts() int { return d.LineBytes / d.BurstBytes() }

// LineTransferNS returns the data-bus time to move one cache line at clock f.
func (d Device) LineTransferNS(f freq.MHz) float64 {
	return float64(d.LineBursts()) * d.BurstNS(f)
}

// RowHitNS returns the ns latency of a row-buffer hit at clock f: the
// column access plus the full cache-line transfer.
func (d Device) RowHitNS(f freq.MHz) float64 {
	return d.TCASns + d.LineTransferNS(f)
}

// RowMissNS returns the ns latency of a row-buffer miss (conflict) at clock
// f: precharge the open row, activate the new one, then column access and
// line transfer.
func (d Device) RowMissNS(f freq.MHz) float64 {
	return d.TRPns + d.TRCDns + d.TCASns + d.LineTransferNS(f)
}

// RefreshOverhead returns the fraction of time the device is unavailable
// due to refresh (tRFC every tREFI).
func (d Device) RefreshOverhead() float64 { return d.TRFCns / d.TREFIns }

// Timing holds the device's core timing constraints converted to integer
// cycle counts at one clock, rounding up as a real controller must.
type Timing struct {
	Clock freq.MHz
	TRCD  int
	TRP   int
	TCAS  int
	TRAS  int
	TWR   int
	TRFC  int
	TREFI int
	Burst int // data bus cycles per burst
}

// TimingAt converts the ns constraints to cycles at clock f.
func (d Device) TimingAt(f freq.MHz) (Timing, error) {
	if err := d.CheckClock(f); err != nil {
		return Timing{}, err
	}
	c := func(ns float64) int {
		period := f.PeriodNS()
		n := int(ns / period)
		if float64(n)*period < ns-1e-9 {
			n++
		}
		if n < 1 {
			n = 1
		}
		return n
	}
	return Timing{
		Clock: f,
		TRCD:  c(d.TRCDns),
		TRP:   c(d.TRPns),
		TCAS:  c(d.TCASns),
		TRAS:  c(d.TRASns),
		TWR:   c(d.TWRns),
		TRFC:  c(d.TRFCns),
		TREFI: c(d.TREFIns),
		Burst: d.BurstLen / 2,
	}, nil
}
