package core

import (
	"fmt"

	"mcdvfs/internal/freq"
)

// Cluster is the performance cluster of one sample (Section VI-A): every
// setting whose performance lies within the cluster threshold of the
// optimal setting chosen under the inefficiency budget.
//
// Note the membership rule follows the paper's definition literally: the
// *optimal* is found under the budget, but members are any settings with
// performance inside the band |speedup/optimal - 1| <= threshold. The band
// is two-sided — a much faster setting is not "within a performance
// degradation threshold" of the optimal — which is what makes the paper's
// Figure 4(a) clusters non-trivial at a budget of exactly 1.0, where only
// the Emin setting itself is admissible.
type Cluster struct {
	Sample  int
	Optimal freq.SettingID
	// Members holds the cluster's setting IDs in ascending ID order; the
	// optimal setting is always a member.
	Members []freq.SettingID
}

// Contains reports whether k is in the cluster.
func (c Cluster) Contains(k freq.SettingID) bool {
	for _, m := range c.Members {
		if m == k {
			return true
		}
	}
	return false
}

// checkThreshold validates a cluster threshold (a fraction, e.g. 0.05 for
// the paper's 5%).
func checkThreshold(threshold float64) error {
	if threshold < 0 || threshold >= 1 {
		return fmt.Errorf("core: cluster threshold %v outside [0,1)", threshold)
	}
	return nil
}

// ClusterAt computes the performance cluster for one sample using the
// paper's two-pass algorithm: first filter by budget and find the optimal
// setting, then collect every setting whose speedup lies within the
// two-sided threshold band around the optimal's speedup.
func (a *Analysis) ClusterAt(sample int, budget, threshold float64) (Cluster, error) {
	if err := checkThreshold(threshold); err != nil {
		return Cluster{}, err
	}
	opt, err := a.OptimalSetting(sample, budget)
	if err != nil {
		return Cluster{}, err
	}
	optSpeedup := a.speedup[sample][int(opt)]
	c := Cluster{Sample: sample, Optimal: opt}
	for k := range a.speedup[sample] {
		sp := a.speedup[sample][k]
		if sp >= optSpeedup*(1-threshold) && sp <= optSpeedup*(1+threshold) {
			c.Members = append(c.Members, freq.SettingID(k))
		}
	}
	return c, nil
}

// Clusters computes the performance cluster of every sample.
func (a *Analysis) Clusters(budget, threshold float64) ([]Cluster, error) {
	out := make([]Cluster, a.NumSamples())
	for s := range out {
		c, err := a.ClusterAt(s, budget, threshold)
		if err != nil {
			return nil, err
		}
		out[s] = c
	}
	return out, nil
}

// MeanClusterSize returns the average cluster cardinality, a measure of how
// much choice a threshold opens up.
func MeanClusterSize(cs []Cluster) float64 {
	if len(cs) == 0 {
		return 0
	}
	total := 0
	for _, c := range cs {
		total += len(c.Members)
	}
	return float64(total) / float64(len(cs))
}

// intersect returns the settings present in both sorted-by-ID slices,
// preserving ascending order.
func intersect(a, b []freq.SettingID) []freq.SettingID {
	var out []freq.SettingID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}
