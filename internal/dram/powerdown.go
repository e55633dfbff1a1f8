package dram

import (
	"fmt"
	"math"

	"mcdvfs/internal/freq"
)

// PowerDown describes the device's low-power state machine, after the
// active low-power modes of MemScale (the paper's reference [11]): between
// accesses the controller can move the DRAM into a power-down state whose
// background power is a fraction of active standby, paying an entry/exit
// latency each round trip.
type PowerDown struct {
	// BackgroundFrac is the power-down background power as a fraction of
	// the clocked standby power (static power is unaffected).
	BackgroundFrac float64
	// EntryNS and ExitNS are the state-change latencies.
	EntryNS float64
	ExitNS  float64
}

// DefaultPowerDown returns LPDDR3-representative fast power-down
// parameters.
func DefaultPowerDown() PowerDown {
	return PowerDown{BackgroundFrac: 0.3, EntryNS: 15, ExitNS: 15}
}

// Validate reports the first non-physical parameter.
func (p PowerDown) Validate() error {
	switch {
	case p.BackgroundFrac < 0 || p.BackgroundFrac > 1:
		return fmt.Errorf("dram: power-down background fraction %v outside [0,1]", p.BackgroundFrac)
	case p.EntryNS < 0 || p.ExitNS < 0:
		return fmt.Errorf("dram: negative power-down latency")
	}
	return nil
}

// IdleSavings estimates the fraction of *clocked background* energy a
// power-down policy recovers under Poisson access arrivals with the given
// rate (accesses per ns) at clock f.
//
// The controller enters power-down whenever a gap exceeds the round-trip
// cost; under exponential gaps of mean 1/rate, the probability that a gap
// exceeds the break-even threshold is exp(-rate·threshold), and within
// such gaps the expected usable fraction accounts for the entry/exit time.
// The return value is in [0, 1 - BackgroundFrac].
func (m *EnergyModel) IdleSavings(pd PowerDown, accessPerNS float64) (float64, error) {
	if err := pd.Validate(); err != nil {
		return 0, err
	}
	if accessPerNS < 0 || math.IsNaN(accessPerNS) || math.IsInf(accessPerNS, 0) {
		return 0, fmt.Errorf("dram: invalid access rate %v", accessPerNS)
	}
	maxSave := 1 - pd.BackgroundFrac
	if accessPerNS == 0 {
		return maxSave, nil // fully idle: always powered down
	}
	roundTrip := pd.EntryNS + pd.ExitNS
	// Fraction of total time spent in gaps longer than the round trip,
	// minus the round-trip overhead paid once per such gap. For an
	// exponential gap G with rate λ: E[(G - rt)·1{G > rt}] = e^{-λ·rt}/λ,
	// and total time per access ≈ 1/λ (+ service, ignored: service time is
	// active anyway).
	usableFrac := math.Exp(-accessPerNS * roundTrip)
	savings := maxSave * usableFrac
	if savings < 0 {
		savings = 0
	}
	return savings, nil
}

// EnergyWithPowerDown is Energy with the clocked background reduced by the
// power-down policy under the interval's average access rate.
func (m *EnergyModel) EnergyWithPowerDown(f freq.MHz, counts Counts, durationNS float64, pd PowerDown) (float64, error) {
	base, err := m.Energy(f, counts, durationNS)
	if err != nil {
		return 0, err
	}
	rate := 0.0
	if durationNS > 0 {
		// Counts are in bursts; accesses are line transfers.
		rate = float64(counts.Accesses()) / float64(m.dev.LineBursts()) / durationNS
	}
	savingsFrac, err := m.IdleSavings(pd, rate)
	if err != nil {
		return 0, err
	}
	clocked := m.dev.PBgClockedW * float64(f/m.dev.FMax)
	saved := clocked * savingsFrac * durationNS * 1e-9
	return base - saved, nil
}
