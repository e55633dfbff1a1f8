package governor

import (
	"fmt"
	"math"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/workload"
)

// RateLimiter is the absolute-energy rate-limiting baseline the paper
// argues against (Section II, citing Cinder and ECOSystem): the system is
// granted a fixed energy allowance per interval; when the last interval
// overspent, the governor throttles to the minimum setting, and when it
// underspent, it races at the maximum. The policy needs an absolute budget
// chosen per device and per workload — exactly the calibration problem the
// inefficiency metric removes — and wastes energy because the allowance is
// attached to time, not to completed work.
type RateLimiter struct {
	space *freq.Space
	// AllowanceJ is the energy allowed per interval.
	allowanceJ float64
	current    freq.Setting
	have       bool
}

// NewRateLimiter builds the baseline with a per-interval energy allowance.
func NewRateLimiter(space *freq.Space, allowanceJ float64) (*RateLimiter, error) {
	if space == nil {
		return nil, fmt.Errorf("governor: nil space")
	}
	if allowanceJ <= 0 || math.IsNaN(allowanceJ) || math.IsInf(allowanceJ, 0) {
		return nil, fmt.Errorf("governor: non-positive energy allowance %v", allowanceJ)
	}
	return &RateLimiter{space: space, allowanceJ: allowanceJ}, nil
}

// Name implements Governor.
func (r *RateLimiter) Name() string {
	return fmt.Sprintf("ratelimit(%.1fmJ)", r.allowanceJ*1e3)
}

// Decide implements Governor: bang-bang control on the energy allowance.
func (r *RateLimiter) Decide(prev *Observation, _ *workload.SampleSpec) (Decision, error) {
	if prev == nil {
		// Start conservatively at the minimum.
		r.current = r.space.Min()
		r.have = true
		return Decision{Setting: r.current}, nil
	}
	if prev.EnergyJ > r.allowanceJ {
		r.current = r.space.Min()
	} else {
		r.current = r.space.Max()
	}
	return Decision{Setting: r.current}, nil
}

// EDP is the energy-delay-product baseline: each interval it picks the
// setting minimizing predicted E·Dⁿ for the previous interval's profile.
// The paper argues EDP "is not a suitable constraint to specify how much
// energy can be used to improve performance": it has no tunable budget —
// one point on the trade-off curve per workload, wherever it lands.
type EDP struct {
	space    *freq.Space
	model    Model
	exponent float64
}

// NewEDP builds the baseline. exponent is the delay power n in E·Dⁿ
// (1 = EDP, 2 = ED²P).
func NewEDP(space *freq.Space, model Model, exponent float64) (*EDP, error) {
	if space == nil || model == nil {
		return nil, fmt.Errorf("governor: missing space or model")
	}
	if exponent < 0 || exponent > 4 {
		return nil, fmt.Errorf("governor: delay exponent %v outside [0,4]", exponent)
	}
	return &EDP{space: space, model: model, exponent: exponent}, nil
}

// Name implements Governor.
func (e *EDP) Name() string { return fmt.Sprintf("edp(n=%.0f)", e.exponent) }

// Decide implements Governor.
func (e *EDP) Decide(prev *Observation, prevProfile *workload.SampleSpec) (Decision, error) {
	if prev == nil || prevProfile == nil {
		return Decision{Setting: e.space.Min()}, nil
	}
	best := e.space.Min()
	bestScore := math.Inf(1)
	searched := 0
	for _, st := range e.space.Settings() {
		tns, ej, err := e.model.Predict(*prevProfile, st)
		if err != nil {
			return Decision{}, fmt.Errorf("governor: edp predict %v: %w", st, err)
		}
		searched++
		score := ej * math.Pow(tns, e.exponent)
		if score < bestScore {
			bestScore, best = score, st
		}
	}
	return Decision{Setting: best, Searched: searched}, nil
}
