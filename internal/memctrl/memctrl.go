// Package memctrl models the memory controller's average behaviour: the
// expected DRAM access latency as a function of memory clock, row-buffer
// locality, and offered load.
//
// The paper's characterization consumes per-sample aggregate measurements,
// so the simulator needs the controller's *average* latency, not per-request
// timing. This package provides a closed-form model:
//
//	latency = coreService/(1-refreshOverhead) + queueDelay
//
// where coreService mixes row-hit and row-miss device latencies by the
// workload's row-hit rate, the refresh term accounts for periodic tRFC
// blackouts, and queueDelay is an M/M/1-style waiting time driven by data
// bus utilization. The model is validated against the command-level
// dram.Engine in integration tests (see validate_test.go).
package memctrl

import (
	"fmt"
	"math"

	"mcdvfs/internal/dram"
	"mcdvfs/internal/freq"
)

// Load describes the average memory traffic presented to the controller.
type Load struct {
	// AccessPerNS is the request arrival rate in accesses per nanosecond.
	AccessPerNS float64
	// RowHitRate is the fraction of accesses hitting an open row, in [0,1].
	RowHitRate float64
	// WriteFrac is the fraction of accesses that are writes, in [0,1].
	WriteFrac float64
}

// Validate reports the first invalid field of the load.
func (l Load) Validate() error {
	switch {
	case l.AccessPerNS < 0 || math.IsNaN(l.AccessPerNS) || math.IsInf(l.AccessPerNS, 0):
		return fmt.Errorf("memctrl: invalid access rate %v", l.AccessPerNS)
	case l.RowHitRate < 0 || l.RowHitRate > 1:
		return fmt.Errorf("memctrl: row hit rate %v outside [0,1]", l.RowHitRate)
	case l.WriteFrac < 0 || l.WriteFrac > 1:
		return fmt.Errorf("memctrl: write fraction %v outside [0,1]", l.WriteFrac)
	}
	return nil
}

// Model is the analytic controller model for one device.
type Model struct {
	dev dram.Device
	// utilCap bounds data-bus utilization in the queueing term so the
	// closed form stays finite; New sets it to 0.95. Beyond the cap,
	// saturation is expressed through the bandwidth bound
	// (MinServiceTimeNS) instead.
	utilCap float64
}

// New builds a controller model for dev.
func New(dev dram.Device) (*Model, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	return &Model{dev: dev, utilCap: 0.95}, nil
}

// MustNew is New for static configuration; it panics on an invalid device.
func MustNew(dev dram.Device) *Model {
	m, err := New(dev)
	if err != nil {
		panic(err)
	}
	return m
}

// Device returns the modeled device.
func (m *Model) Device() dram.Device { return m.dev }

// CoreServiceNS returns the load-independent device service time at clock f:
// the row-hit/row-miss mix inflated by refresh unavailability.
func (m *Model) CoreServiceNS(f freq.MHz, rowHitRate float64) (float64, error) {
	if err := m.dev.CheckClock(f); err != nil {
		return 0, err
	}
	if rowHitRate < 0 || rowHitRate > 1 {
		return 0, fmt.Errorf("memctrl: row hit rate %v outside [0,1]", rowHitRate)
	}
	mix := rowHitRate*m.dev.RowHitNS(f) + (1-rowHitRate)*m.dev.RowMissNS(f)
	return mix / (1 - m.dev.RefreshOverhead()), nil
}

// BusUtilization returns the data-bus utilization implied by the load at
// clock f (1.0 = the bus is fully occupied by bursts).
func (m *Model) BusUtilization(f freq.MHz, l Load) (float64, error) {
	if err := m.dev.CheckClock(f); err != nil {
		return 0, err
	}
	if err := l.Validate(); err != nil {
		return 0, err
	}
	return l.AccessPerNS * m.dev.LineTransferNS(f), nil
}

// AvgLatencyNS returns the expected per-access latency at clock f under the
// given load, including queueing. The result is non-negative: a validated
// device keeps the refresh overhead below 1, and utilization is capped.
func (m *Model) AvgLatencyNS(f freq.MHz, l Load) (float64, error) {
	core, err := m.CoreServiceNS(f, l.RowHitRate)
	if err != nil {
		return 0, err
	}
	if err := l.Validate(); err != nil {
		return 0, err
	}
	util, err := m.BusUtilization(f, l)
	if err != nil {
		return 0, err
	}
	if util > m.utilCap {
		util = m.utilCap
	}
	// M/M/1 waiting time with the line transfer as the contended resource.
	// Writes hold the bank slightly longer (tWR), folded in as extra
	// service.
	service := m.dev.LineTransferNS(f) + l.WriteFrac*m.dev.TWRns*0.5
	queue := util / (1 - util) * service
	return core + queue, nil
}

// MinServiceTimeNS returns the bandwidth-bound lower limit on the time to
// move n cache-line accesses at clock f: the bus must carry every line,
// degraded by refresh blackouts. Execution time can never be below this
// bound no matter how latency-tolerant the core is.
func (m *Model) MinServiceTimeNS(f freq.MHz, n float64) (float64, error) {
	if err := m.dev.CheckClock(f); err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("memctrl: negative access count %v", n)
	}
	return n * m.dev.LineTransferNS(f) / (1 - m.dev.RefreshOverhead()), nil
}

// Coeffs packs every clock-dependent invariant of the latency model, hoisted
// once per operating point so a fixed-point solver can evaluate the model in
// a handful of floating-point operations per iteration instead of
// re-deriving (and re-validating) device timings on every call.
//
// The evaluation methods mirror Model.AvgLatencyNS and Model.MinServiceTimeNS
// operation-for-operation — same terms, same association order — so for
// inputs the Model methods would accept, the results are bit-identical. The
// equivalence is pinned by TestCoeffsMatchModel. Inputs are NOT validated
// here; callers hoist validation alongside the coefficients. CoeffsAt
// builds them from a validated device, so RefreshDenom lies in (0, 1] and
// UtilCap in (0, 0.95].
type Coeffs struct {
	RowHitNS       float64 // device row-hit latency at the clock
	RowMissNS      float64 // device row-miss (conflict) latency at the clock
	RefreshDenom   float64 // 1 - refresh overhead, the availability fraction
	LineTransferNS float64 // data-bus time per cache line at the clock
	TWRns          float64 // write recovery, folded into write service time
	UtilCap        float64 // queueing-term utilization cap
}

// CoeffsAt hoists the latency-model invariants for clock f.
func (m *Model) CoeffsAt(f freq.MHz) (Coeffs, error) {
	if err := m.dev.CheckClock(f); err != nil {
		return Coeffs{}, err
	}
	return Coeffs{
		RowHitNS:       m.dev.RowHitNS(f),
		RowMissNS:      m.dev.RowMissNS(f),
		RefreshDenom:   1 - m.dev.RefreshOverhead(),
		LineTransferNS: m.dev.LineTransferNS(f),
		TWRns:          m.dev.TWRns,
		UtilCap:        m.utilCap,
	}, nil
}

// CoreServiceNS is the hoisted Model.CoreServiceNS: the load-independent
// row-hit/row-miss latency mix inflated by refresh unavailability. For
// rowHitRate in [0, 1] the result is non-negative.
func (c Coeffs) CoreServiceNS(rowHitRate float64) float64 {
	mix := rowHitRate*c.RowHitNS + (1-rowHitRate)*c.RowMissNS
	return mix / c.RefreshDenom
}

// ServiceNS is the contended service time of the queueing term: the line
// transfer plus the write-recovery share for the workload's write mix. For
// writeFrac in [0, 1] the result is non-negative.
func (c Coeffs) ServiceNS(writeFrac float64) float64 {
	return c.LineTransferNS + writeFrac*c.TWRns*0.5
}

// QueueNS is the M/M/1-style waiting time at the given arrival rate, with
// serviceNS precomputed by ServiceNS. CoreServiceNS(h) + QueueNS(r, s)
// equals Model.AvgLatencyNS bit-for-bit. For non-negative arguments the
// result is non-negative and finite.
func (c Coeffs) QueueNS(accessPerNS, serviceNS float64) float64 {
	util := accessPerNS * c.LineTransferNS
	if util > c.UtilCap {
		util = c.UtilCap
	}
	return util / (1 - util) * serviceNS
}

// MinServiceTimeNS is the hoisted Model.MinServiceTimeNS bandwidth bound for
// n cache-line accesses. For a non-negative n the result is non-negative.
func (c Coeffs) MinServiceTimeNS(n float64) float64 {
	return n * c.LineTransferNS / c.RefreshDenom
}
