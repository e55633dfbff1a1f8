package predict

import "fmt"

// StabilityPredictor estimates how many more samples the current stable
// region will last, letting a governor skip tuning inside predicted-stable
// intervals (the paper's Section VII learning proposal, after Isci et al.'s
// phase-duration predictors).
type StabilityPredictor struct {
	// history of completed region lengths, most recent last.
	lengths []int
	maxHist int
	// current run length of the in-progress region.
	current int
}

// NewStabilityPredictor builds a predictor remembering up to maxHist
// completed region lengths.
func NewStabilityPredictor(maxHist int) (*StabilityPredictor, error) {
	if maxHist < 1 {
		return nil, fmt.Errorf("predict: history size %d < 1", maxHist)
	}
	return &StabilityPredictor{maxHist: maxHist}, nil
}

// ObserveStable records that the region survived one more sample.
func (p *StabilityPredictor) ObserveStable() { p.current++ }

// ObserveStableRun records that the region survived n more samples, as n
// ObserveStable calls would, in constant time.
func (p *StabilityPredictor) ObserveStableRun(n int) { p.current += n }

// ObserveBreak records that the region ended (the cluster moved), closing
// the current run length into history.
func (p *StabilityPredictor) ObserveBreak() {
	if p.current > 0 {
		p.lengths = append(p.lengths, p.current)
		if len(p.lengths) > p.maxHist {
			p.lengths = p.lengths[1:]
		}
	}
	p.current = 0
}

// Current returns the length of the in-progress region.
func (p *StabilityPredictor) Current() int { return p.current }

// PredictRemaining estimates how many more samples the current region will
// stay stable: the historical mean region length minus the samples already
// spent, floored at zero. With no history it predicts zero (always tune),
// the conservative choice.
func (p *StabilityPredictor) PredictRemaining() int {
	if len(p.lengths) == 0 {
		return 0
	}
	sum := 0
	for _, l := range p.lengths {
		sum += l
	}
	mean := sum / len(p.lengths)
	rem := mean - p.current
	if rem < 0 {
		return 0
	}
	return rem
}
