package core

import (
	"fmt"

	"mcdvfs/internal/freq"
)

// PreferHigher reports whether setting a should be preferred over b under
// the paper's tie-break rule: highest CPU frequency first, then highest
// memory frequency. Among similar-speedup settings this choice is "bound to
// have highest performance among the other possibilities". The budget
// governor breaks its ties with it too.
func PreferHigher(a, b freq.Setting) bool {
	if a.CPU != b.CPU {
		return a.CPU > b.CPU
	}
	return a.Mem > b.Mem
}

// OptimalSetting returns the best-performing setting for the sample under
// the inefficiency budget, applying the paper's selection algorithm: filter
// settings by budget, find the highest speedup, and among settings within
// SpeedupTieBand of it pick the one with the highest CPU then memory
// frequency. It scans the sample's rows in place, in ascending setting ID
// order — one pass for the highest admissible speedup, one for the pick —
// so it allocates nothing; WithinBudget lists the same admissible set.
func (a *Analysis) OptimalSetting(sample int, budget float64) (freq.SettingID, error) {
	a.checkSample(sample)
	if err := checkBudget(budget); err != nil {
		return 0, err
	}
	ineff, speedup := a.ineff[sample], a.speedup[sample]
	best := 0.0
	for k, sp := range speedup {
		if ineff[k] <= budget && sp > best {
			best = sp
		}
	}
	chosen := freq.SettingID(-1)
	for k, sp := range speedup {
		if !(ineff[k] <= budget) || sp < best*(1-SpeedupTieBand) {
			continue
		}
		if id := freq.SettingID(k); chosen < 0 || PreferHigher(a.grid.Setting(id), a.grid.Setting(chosen)) {
			chosen = id
		}
	}
	if chosen < 0 {
		return 0, fmt.Errorf("core: empty candidate set for sample %d", sample)
	}
	return chosen, nil
}

// Schedule assigns one setting to every sample of a run.
type Schedule []freq.SettingID

// Transitions returns the number of setting changes along the schedule.
func (s Schedule) Transitions() int {
	n := 0
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			n++
		}
	}
	return n
}

// OptimalSchedule returns the per-sample optimal settings under the budget
// — the expensive "track the optimal every sample" policy the paper uses
// as its reference (Figure 3).
func (a *Analysis) OptimalSchedule(budget float64) (Schedule, error) {
	sch := make(Schedule, a.NumSamples())
	for s := range sch {
		k, err := a.OptimalSetting(s, budget)
		if err != nil {
			return nil, err
		}
		sch[s] = k
	}
	return sch, nil
}

// TransitionsPerBillion converts a transition count into the paper's
// transitions-per-billion-instructions unit (Figure 8).
func (a *Analysis) TransitionsPerBillion(transitions int) float64 {
	return float64(transitions) / (float64(a.TotalInstructions()) / 1e9)
}
