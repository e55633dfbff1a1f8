package governor

import (
	"fmt"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/workload"
)

// OnDemand is a Linux-ondemand-style utilization governor extended to two
// components: it raises the CPU clock to maximum when the core's activity
// exceeds the up-threshold and steps it down when activity falls below the
// down-threshold, and drives the memory clock the same way from memory
// traffic intensity. It knows nothing about energy budgets — it is the
// load-following baseline the paper's inefficiency governors replace.
type OnDemand struct {
	space *freq.Space
	// UpThreshold and DownThreshold act on the estimated core activity.
	up, down float64
	// memUp/memDown act on memory traffic (accesses per ns, normalized to
	// the peak the current memory clock can serve).
	memUp, memDown float64

	cpuIdx, memIdx int
	have           bool
}

// NewOnDemand builds the governor with classic 80%/30% thresholds.
func NewOnDemand(space *freq.Space) (*OnDemand, error) {
	if space == nil {
		return nil, fmt.Errorf("governor: nil space")
	}
	return &OnDemand{
		space: space,
		up:    0.80, down: 0.30,
		memUp: 0.60, memDown: 0.20,
	}, nil
}

// Name implements Governor.
func (o *OnDemand) Name() string { return "ondemand" }

// Decide implements Governor.
func (o *OnDemand) Decide(prev *Observation, prevProfile *workload.SampleSpec) (Decision, error) {
	cpuLadder := o.space.CPULadder()
	memLadder := o.space.MemLadder()
	if prev == nil {
		// Boot at the middle of each ladder, like a freshly initialized
		// ondemand instance after its first sampling period.
		o.cpuIdx = len(cpuLadder) / 2
		o.memIdx = len(memLadder) / 2
		o.have = true
		return Decision{Setting: freq.Setting{CPU: cpuLadder[o.cpuIdx], Mem: memLadder[o.memIdx]}}, nil
	}

	// Core activity estimate: achieved CPI relative to an assumed compute
	// CPI of 1 — when stalls dominate, the core looks idle to ondemand.
	activity := 1.0
	if prev.CPI > 0 {
		activity = 1 / prev.CPI
	}
	if activity > 1 {
		activity = 1
	}
	switch {
	case activity >= o.up:
		o.cpuIdx = len(cpuLadder) - 1 // ondemand jumps straight to max
	case activity <= o.down && o.cpuIdx > 0:
		o.cpuIdx--
	}

	// Memory intensity: MPKI-derived traffic normalized to a nominal
	// heavy-traffic level.
	const heavyMPKI = 20.0
	memLoad := prev.MPKI / heavyMPKI
	switch {
	case memLoad >= o.memUp:
		o.memIdx = len(memLadder) - 1
	case memLoad <= o.memDown && o.memIdx > 0:
		o.memIdx--
	}

	return Decision{Setting: freq.Setting{CPU: cpuLadder[o.cpuIdx], Mem: memLadder[o.memIdx]}}, nil
}
