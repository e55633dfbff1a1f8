package experiments

import (
	"context"
	"fmt"

	"mcdvfs/internal/core"
	"mcdvfs/internal/report"
)

// ClusterCase summarizes the performance clusters of one (budget,
// threshold) pair.
type ClusterCase struct {
	Budget    float64
	Threshold float64
	MeanSize  float64
	// Regions is the resulting stable-region count, the quantity the
	// cluster width ultimately controls.
	Regions int
}

// Fig04Result reproduces Figures 4 (gobmk) and 5 (milc): performance
// clusters across budget and threshold combinations.
type Fig04Result struct {
	Benchmark string
	Cases     []ClusterCase
}

// Fig04Cases returns the (budget, threshold) grid of Figures 4 and 5.
func Fig04Cases() [][2]float64 {
	return [][2]float64{{1.0, 0.01}, {1.0, 0.05}, {1.3, 0.01}, {1.3, 0.05}}
}

// FigClusters computes the cluster characterization for one benchmark over
// the given (budget, threshold) cases.
func (l *Lab) FigClusters(ctx context.Context, bench string, cases [][2]float64) (*Fig04Result, error) {
	a, err := l.AnalysisFor(ctx, l.key(bench, "coarse"))
	if err != nil {
		return nil, err
	}
	res := &Fig04Result{Benchmark: bench}
	for _, c := range cases {
		budget, th := c[0], c[1]
		clusters, err := a.Clusters(budget, th)
		if err != nil {
			return nil, err
		}
		regions, err := a.StableRegions(budget, th)
		if err != nil {
			return nil, err
		}
		res.Cases = append(res.Cases, ClusterCase{
			Budget:    budget,
			Threshold: th,
			MeanSize:  core.MeanClusterSize(clusters),
			Regions:   len(regions),
		})
	}
	return res, nil
}

// Table renders the cluster summary per case.
func (r *Fig04Result) Table(figure string) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("%s — %s: performance clusters", figure, r.Benchmark),
		"budget", "threshold", "mean cluster size", "stable regions")
	for _, c := range r.Cases {
		t.AddRow(
			BudgetLabel(c.Budget),
			fmt.Sprintf("%.0f%%", c.Threshold*100),
			fmt.Sprintf("%.1f", c.MeanSize),
			fmt.Sprintf("%d", c.Regions),
		)
	}
	return t
}
