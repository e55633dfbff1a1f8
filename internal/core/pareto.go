package core

import "mcdvfs/internal/freq"

// ParetoPoint is one non-dominated whole-run operating point.
type ParetoPoint struct {
	Setting      freq.SettingID
	TimeNS       float64
	EnergyJ      float64
	Inefficiency float64
	Speedup      float64
}

// ParetoFrontier returns the whole-run energy-performance frontier: the
// settings not dominated by any other setting (strictly better in one of
// time/energy and at least as good in the other). Points come back sorted
// by ascending time (descending energy).
//
// The frontier is the set a "smart algorithm" (Section IV) should search:
// every optimal-under-budget choice lies on it, for any budget.
func (a *Analysis) ParetoFrontier() []ParetoPoint {
	n := a.NumSettings()
	dominated := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			ti, ei := a.runTimeNS[i], a.runEnergyJ[i]
			tj, ej := a.runTimeNS[j], a.runEnergyJ[j]
			if tj <= ti && ej <= ei && (tj < ti || ej < ei) {
				dominated[i] = true
				break
			}
		}
	}
	var out []ParetoPoint
	for k := 0; k < n; k++ {
		if dominated[k] {
			continue
		}
		id := freq.SettingID(k)
		out = append(out, ParetoPoint{
			Setting:      id,
			TimeNS:       a.runTimeNS[k],
			EnergyJ:      a.runEnergyJ[k],
			Inefficiency: a.RunInefficiency(id),
			Speedup:      a.RunSpeedup(id),
		})
	}
	// Insertion sort by time (frontiers are small).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].TimeNS < out[j-1].TimeNS; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
