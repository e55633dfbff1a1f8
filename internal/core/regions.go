package core

import "mcdvfs/internal/freq"

// Region is a stable region (Section VI-B): a maximal run of consecutive
// samples sharing at least one common setting across all their performance
// clusters. The system can sit at one setting for the whole region and stay
// within the cluster threshold of optimal at every sample.
type Region struct {
	// Start and End are the inclusive sample bounds.
	Start, End int
	// Choice is the setting selected for the region: the highest-CPU-then-
	// memory member of the surviving common set, per the paper's rule.
	Choice freq.SettingID
	// Avail is the full set of settings common to every sample in the
	// region, ascending by ID.
	Avail []freq.SettingID
}

// Len returns the region length in samples.
func (r Region) Len() int { return r.End - r.Start + 1 }

// StableRegions segments the run into stable regions for the given budget
// and cluster threshold using the paper's greedy algorithm: starting from a
// sample's cluster, intersect with each subsequent sample's cluster until
// the common set would become empty, then close the region and start a new
// one.
//
// As the paper notes, this construction "knows the future": it is an
// offline profiling tool, not an online governor. The online counterpart
// lives in internal/governor.
func (a *Analysis) StableRegions(budget, threshold float64) ([]Region, error) {
	clusters, err := a.Clusters(budget, threshold)
	if err != nil {
		return nil, err
	}
	return regionsFromClusters(a, clusters), nil
}

// regionsFromClusters runs the segmentation over precomputed clusters.
func regionsFromClusters(a *Analysis, clusters []Cluster) []Region {
	var regions []Region
	if len(clusters) == 0 {
		return regions
	}
	start := 0
	avail := clusters[0].Members
	for s := 1; s < len(clusters); s++ {
		next := intersect(avail, clusters[s].Members)
		if len(next) == 0 {
			regions = append(regions, closeRegion(a, start, s-1, avail))
			start = s
			avail = clusters[s].Members
			continue
		}
		avail = next
	}
	regions = append(regions, closeRegion(a, start, len(clusters)-1, avail))
	return regions
}

// closeRegion picks the region's setting from the surviving common set:
// the member with the lowest total energy across the region's samples,
// breaking exact ties toward higher CPU then lower memory frequency.
//
// Every member is performance-equivalent within the cluster threshold, so
// the cheapest member trades the allowed sliver of performance for energy
// — the paper's own motivating example (Section V: bzip2 giving up 3%
// performance for 1/4 of the memory background energy) and the choice that
// reproduces Figure 11, where degradation scales with the threshold and
// energy *savings* grow with it. (The paper's prose tie-break — highest
// CPU, then memory — would instead pin degradation at ~0 and spend extra
// energy, contradicting its own figure; see EXPERIMENTS.md.)
func closeRegion(a *Analysis, start, end int, avail []freq.SettingID) Region {
	energyOver := func(k freq.SettingID) float64 {
		sum := 0.0
		for s := start; s <= end; s++ {
			sum += a.grid.At(s, k).EnergyJ()
		}
		return sum
	}
	choice := avail[0]
	bestE := energyOver(choice)
	for _, k := range avail[1:] {
		e := energyOver(k)
		switch {
		case e < bestE:
			choice, bestE = k, e
		case e == bestE:
			cand, cur := a.grid.Setting(k), a.grid.Setting(choice)
			if cand.CPU > cur.CPU || (cand.CPU == cur.CPU && cand.Mem < cur.Mem) {
				choice = k
			}
		}
	}
	return Region{Start: start, End: end, Choice: choice, Avail: append([]freq.SettingID(nil), avail...)}
}

// RegionSchedule expands stable regions into a per-sample schedule: every
// sample in a region runs at the region's choice. The schedule makes
// exactly len(regions)-1 transitions.
func RegionSchedule(numSamples int, regions []Region) Schedule {
	sch := make(Schedule, numSamples)
	for _, r := range regions {
		for s := r.Start; s <= r.End; s++ {
			sch[s] = r.Choice
		}
	}
	return sch
}

// RegionLengths returns each region's length in samples, in order.
func RegionLengths(regions []Region) []int {
	out := make([]int, len(regions))
	for i, r := range regions {
		out[i] = r.Len()
	}
	return out
}
