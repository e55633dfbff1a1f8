package governor

import (
	"fmt"
	"math"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/predict"
	"mcdvfs/internal/workload"
)

// SearchStart selects where a tuning search begins.
type SearchStart int

const (
	// FromMax restarts every search from the full setting space, the
	// CoScale-style baseline the paper calls "not efficient".
	FromMax SearchStart = iota
	// FromPrevious searches outward from the current setting, exploiting
	// the paper's observation that phases are often stable across
	// intervals.
	FromPrevious
)

// String names the search strategy.
func (s SearchStart) String() string {
	if s == FromPrevious {
		return "from-previous"
	}
	return "from-max"
}

// BudgetConfig configures the inefficiency-budget cluster governor.
type BudgetConfig struct {
	// Budget is the inefficiency budget I >= 1 (use math.Inf(1) for the
	// unconstrained case).
	Budget float64
	// Threshold is the cluster threshold (0.01 = 1%): the governor keeps
	// its current setting whenever that setting stays within Threshold of
	// the predicted optimal, avoiding a transition.
	Threshold float64
	// Space enumerates candidate settings.
	Space *freq.Space
	// Model predicts candidate behaviour.
	Model Model
	// Search selects the search strategy.
	Search SearchStart
	// UseStability enables the region-length predictor: after learning
	// typical stable-region lengths the governor skips whole searches
	// inside predicted-stable intervals (Section VII), unless the
	// workload's counters drift past driftTolerance.
	UseStability bool
}

const (
	// driftTolerance aborts a stability skip when the workload's CPI or
	// MPKI moves more than this relative amount from the profile the
	// current setting was chosen on.
	driftTolerance = 0.25
	// recalibrateEvery forces a FromPrevious governor to run one full
	// sweep every this many local searches, refreshing the exact Emin the
	// budget filter depends on.
	recalibrateEvery = 8
)

// Budget is the paper-inspired online governor. See BudgetConfig.
type Budget struct {
	cfg       BudgetConfig
	emin      predict.EminPredictor
	stability *predict.StabilityPredictor

	current        freq.Setting
	haveSet        bool
	chosenOn       workload.SampleSpec // profile the current setting was chosen on
	skipBudget     int                 // samples the stability predictor said to skip
	sinceFullSweep int                 // local searches since the last full sweep
}

// NewBudget validates cfg and builds the governor.
func NewBudget(cfg BudgetConfig) (*Budget, error) {
	if math.IsNaN(cfg.Budget) || cfg.Budget < 1 {
		return nil, fmt.Errorf("governor: budget %v below 1", cfg.Budget)
	}
	if cfg.Threshold < 0 || cfg.Threshold >= 1 {
		return nil, fmt.Errorf("governor: threshold %v outside [0,1)", cfg.Threshold)
	}
	if cfg.Space == nil || cfg.Model == nil {
		return nil, fmt.Errorf("governor: missing space or model")
	}
	stab, err := predict.NewStabilityPredictor(8)
	if err != nil {
		return nil, err
	}
	return &Budget{cfg: cfg, emin: predict.NewLastValue(), stability: stab}, nil
}

// Name implements Governor.
func (b *Budget) Name() string {
	suffix := ""
	if b.cfg.UseStability {
		suffix = ",stability"
	}
	return fmt.Sprintf("budget(I=%.2f,th=%.0f%%,%v%s)", b.cfg.Budget, b.cfg.Threshold*100, b.cfg.Search, suffix)
}

// Decide implements Governor.
func (b *Budget) Decide(prev *Observation, prevProfile *workload.SampleSpec) (Decision, error) {
	// First interval: no history. Start at the space minimum — the safe
	// choice under an energy constraint — and search at the next boundary.
	if prev == nil || prevProfile == nil {
		b.current = b.cfg.Space.Min()
		b.haveSet = true
		b.chosenOn = workload.SampleSpec{}
		return Decision{Setting: b.current}, nil
	}

	// Feed the completed interval to a learning model before using it.
	if obs, ok := b.cfg.Model.(Observer); ok {
		err := obs.ObserveCounters(prev.Setting, prevProfile.Instructions,
			prev.TimeNS, prev.MPKI, prevProfile.RowHitRate, prevProfile.WriteFrac)
		if err != nil {
			return Decision{}, fmt.Errorf("governor: model observation: %w", err)
		}
	}

	// Stability skip: if the predictor expects the region to continue and
	// the workload has not drifted, keep the setting without searching.
	if b.cfg.UseStability && b.skipBudget > 0 && !b.drifted(*prevProfile) {
		b.skipBudget--
		b.stability.ObserveStable()
		return Decision{Setting: b.current}, nil
	}

	dec, err := b.search(*prevProfile)
	if err != nil {
		return Decision{}, err
	}
	if b.cfg.UseStability {
		if dec.Setting == b.current {
			b.stability.ObserveStable()
			b.skipBudget = b.stability.PredictRemaining()
		} else {
			b.stability.ObserveBreak()
			b.skipBudget = 0
		}
	}
	b.current = dec.Setting
	b.chosenOn = *prevProfile
	return dec, nil
}

// drifted reports whether the profile moved beyond the drift tolerance
// since the current setting was chosen.
func (b *Budget) drifted(p workload.SampleSpec) bool {
	rel := func(a, c float64) float64 {
		if c == 0 {
			return math.Abs(a)
		}
		return math.Abs(a-c) / c
	}
	return rel(p.BaseCPI, b.chosenOn.BaseCPI) > driftTolerance ||
		rel(p.MPKI, b.chosenOn.MPKI) > driftTolerance
}

// candidate is one evaluated setting during a search.
type candidate struct {
	st      freq.Setting
	timeNS  float64
	energyJ float64
}

// search runs the tuning algorithm on the previous interval's profile.
func (b *Budget) search(profile workload.SampleSpec) (Decision, error) {
	switch b.cfg.Search {
	case FromPrevious:
		return b.searchLocal(profile)
	default:
		return b.searchFull(profile)
	}
}

// searchFull is the brute-force pass the paper describes for Emin: predict
// every setting, derive Emin and inefficiency exactly, filter by budget,
// and apply the cluster rule.
func (b *Budget) searchFull(profile workload.SampleSpec) (Decision, error) {
	settings := b.cfg.Space.Settings()
	cands := make([]candidate, 0, len(settings))
	emin := math.Inf(1)
	for _, st := range settings {
		tns, ej, err := b.cfg.Model.Predict(profile, st)
		if err != nil {
			return Decision{}, fmt.Errorf("governor: predicting %v: %w", st, err)
		}
		cands = append(cands, candidate{st: st, timeNS: tns, energyJ: ej})
		if ej < emin {
			emin = ej
		}
	}
	b.emin.Observe(emin)
	return b.pick(cands, emin, len(cands))
}

// searchLocal expands outward from the current setting, using the learned
// Emin estimate for the budget filter so it does not need a full sweep. It
// stops when a whole ring fails to improve the best admissible time, and
// periodically falls back to a full sweep to recalibrate Emin.
func (b *Budget) searchLocal(profile workload.SampleSpec) (Decision, error) {
	eminEst, ok := b.emin.Predict()
	if !ok || !b.haveSet || b.sinceFullSweep >= recalibrateEvery {
		b.sinceFullSweep = 0
		return b.searchFull(profile)
	}
	b.sinceFullSweep++
	cpuLadder := b.cfg.Space.CPULadder()
	memLadder := b.cfg.Space.MemLadder()
	ci := ladderIndex(cpuLadder, b.current.CPU)
	mi := ladderIndex(memLadder, b.current.Mem)

	var cands []candidate
	searched := 0
	bestTime := math.Inf(1)
	localEmin := math.Inf(1)
	maxRadius := len(cpuLadder) + len(memLadder)
	for radius := 0; radius <= maxRadius; radius++ {
		improved := false
		for dc := -radius; dc <= radius; dc++ {
			for dm := -radius; dm <= radius; dm++ {
				if maxAbs(dc, dm) != radius {
					continue // ring only
				}
				c, m := ci+dc, mi+dm
				if c < 0 || c >= len(cpuLadder) || m < 0 || m >= len(memLadder) {
					continue
				}
				st := freq.Setting{CPU: cpuLadder[c], Mem: memLadder[m]}
				tns, ej, err := b.cfg.Model.Predict(profile, st)
				if err != nil {
					return Decision{}, fmt.Errorf("governor: predicting %v: %w", st, err)
				}
				searched++
				cands = append(cands, candidate{st: st, timeNS: tns, energyJ: ej})
				if ej < localEmin {
					localEmin = ej
				}
				if ej <= b.cfg.Budget*eminEst && tns < bestTime {
					bestTime = tns
					improved = true
				}
			}
		}
		// Stop once a ring beyond the immediate neighborhood brings no
		// admissible improvement.
		if radius >= 1 && !improved && !math.IsInf(bestTime, 1) {
			break
		}
	}
	// Keep the last full-sweep Emin; the local minimum only replaces it
	// when it is lower (a local ring can never see below the global
	// minimum, so this only improves the estimate).
	if localEmin < eminEst {
		b.emin.Observe(localEmin)
	}
	return b.pick(cands, eminEst, searched)
}

// pick selects the next setting from evaluated candidates, given Emin
// (exact after a full sweep, the learned estimate after a local one):
// admissible = within budget (relative to emin); optimal = min predicted
// time with the paper's highest-CPU-then-memory tie-break; and if the
// current setting is admissible and within the cluster threshold of the
// optimal, keep it to avoid a transition.
func (b *Budget) pick(cands []candidate, emin float64, searched int) (Decision, error) {
	var admissible []candidate
	for _, c := range cands {
		if c.energyJ <= b.cfg.Budget*emin {
			admissible = append(admissible, c)
		}
	}
	if len(admissible) == 0 {
		// A mispredicted Emin can make the budget infeasible; fall back to
		// the minimum-energy candidate, the most conservative admissible
		// approximation.
		best := cands[0]
		for _, c := range cands[1:] {
			if c.energyJ < best.energyJ {
				best = c
			}
		}
		admissible = []candidate{best}
	}
	bestTime := math.Inf(1)
	for _, c := range admissible {
		if c.timeNS < bestTime {
			bestTime = c.timeNS
		}
	}
	var opt *candidate
	var currentOK *candidate
	for i := range admissible {
		c := &admissible[i]
		// The paper's 0.5% tie band, then highest CPU/mem.
		if c.timeNS <= bestTime*(1+0.005) {
			if opt == nil || preferHigher(c.st, opt.st) {
				opt = c
			}
		}
		if b.haveSet && c.st == b.current && c.timeNS <= bestTime*(1+b.cfg.Threshold) {
			currentOK = c
		}
	}
	if currentOK != nil {
		return Decision{Setting: currentOK.st, Searched: searched}, nil
	}
	// opt is set: admissible is never empty (fallback above) and its
	// minimum-time candidate sits inside its own tie band.
	return Decision{Setting: opt.st, Searched: searched}, nil
}

// preferHigher mirrors the core package's tie-break rule.
func preferHigher(a, b freq.Setting) bool {
	if a.CPU != b.CPU {
		return a.CPU > b.CPU
	}
	return a.Mem > b.Mem
}

// ladderIndex returns the index of the ladder entry nearest to f.
func ladderIndex(ladder []freq.MHz, f freq.MHz) int {
	best, bestDiff := 0, math.Inf(1)
	for i, l := range ladder {
		d := math.Abs(float64(l - f))
		if d < bestDiff {
			best, bestDiff = i, d
		}
	}
	return best
}

// maxAbs returns max(|a|, |b|).
func maxAbs(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}
