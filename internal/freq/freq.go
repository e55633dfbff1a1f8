// Package freq provides the frequency, voltage, and operating-point types
// shared by every component model in mcdvfs.
//
// The paper's system exposes two independently clocked domains: a CPU domain
// with dynamic voltage and frequency scaling (DVFS) and a memory domain with
// frequency-only scaling (DFS). This package defines the typed units (MHz,
// volts), the operating-performance-point (OPP) tables that map a frequency
// to its supply voltage, and the enumerated spaces of (CPU, memory) setting
// pairs over which all characterization runs.
package freq

import (
	"fmt"
	"math"
)

// MHz is a clock frequency in megahertz.
type MHz float64

// GHz returns the frequency in gigahertz.
func (f MHz) GHz() float64 { return float64(f) / 1e3 }

// Hz returns the frequency in hertz.
func (f MHz) Hz() float64 { return float64(f) * 1e6 }

// CyclesPerNS returns the clock rate as cycles per nanosecond. The value
// equals GHz numerically, but cycle-counting code should say what it means:
// the units check treats frequencies and rates as different dimensions.
func (f MHz) CyclesPerNS() float64 { return float64(f) * 1e-3 }

// PeriodNS returns the clock period in nanoseconds. It panics for
// non-positive frequencies, which are always a programming error.
//
//vet:requires f > 0
//vet:ensures ret > 0
func (f MHz) PeriodNS() float64 {
	if f <= 0 {
		panic(fmt.Sprintf("freq: period of non-positive frequency %v", f))
	}
	return 1e3 / float64(f)
}

// String renders the frequency as an integer MHz count when exact,
// otherwise with one decimal.
func (f MHz) String() string {
	if f == MHz(math.Trunc(float64(f))) {
		return fmt.Sprintf("%dMHz", int64(f))
	}
	return fmt.Sprintf("%.1fMHz", float64(f))
}

// Volts is a supply voltage.
type Volts float64

// String renders the voltage with millivolt precision.
func (v Volts) String() string { return fmt.Sprintf("%.3fV", float64(v)) }

// Ladder returns the inclusive arithmetic sequence lo, lo+step, …, hi.
// It panics if the arguments cannot produce a non-empty ladder, since
// ladders are build-time configuration.
//
//vet:requires step > 0 && hi >= lo
func Ladder(lo, hi, step MHz) []MHz {
	if step <= 0 {
		panic(fmt.Sprintf("freq: non-positive ladder step %v", step))
	}
	if hi < lo {
		panic(fmt.Sprintf("freq: ladder bounds inverted [%v, %v]", lo, hi))
	}
	n := int(math.Floor(float64((hi-lo)/step)+1e-9)) + 1
	out := make([]MHz, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, lo+MHz(i)*step)
	}
	return out
}
