// Stable regions: offline profiling of a memory-streaming workload (lbm),
// the paper's Section VII "offline analysis" use case. The profile —
// region boundaries, lengths, and the settings valid inside each region —
// is what a production system would ship alongside an application so the
// runtime can tune only at region boundaries.
package main

import (
	"context"
	"fmt"
	"log"

	"mcdvfs"
)

func main() {
	const (
		bench     = "lbm"
		budget    = 1.3
		threshold = 0.05
	)
	grid, err := mcdvfs.Collect(context.Background(), bench, mcdvfs.CoarseSpace())
	if err != nil {
		log.Fatal(err)
	}
	analysis, err := mcdvfs.Analyze(grid)
	if err != nil {
		log.Fatal(err)
	}
	regions, err := analysis.StableRegions(budget, threshold)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s profile: inefficiency budget %.1f, cluster threshold %.0f%%\n",
		bench, budget, threshold*100)
	fmt.Printf("%d samples -> %d stable regions (%d transitions)\n\n",
		grid.NumSamples(), len(regions), len(regions)-1)
	fmt.Printf("%-8s %-12s %-8s %-15s %s\n", "region", "samples", "length", "setting", "alternatives")
	for i, r := range regions {
		fmt.Printf("%-8d [%3d, %3d]   %-8d %-15v %d\n",
			i, r.Start, r.End, r.Len(), grid.Setting(r.Choice), len(r.Avail))
	}

	// Compare the profiled schedule against per-sample optimal tracking,
	// with the paper's tuning overhead (500 µs + 30 µJ per tune).
	tr, err := analysis.EvaluateTradeoff(budget, threshold, mcdvfs.DefaultOverhead())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvs per-sample optimal tracking:\n")
	fmt.Printf("  transitions:             %d -> %d\n", tr.OptimalTransitions, tr.RegionTransitions)
	fmt.Printf("  perf delta (no overhead):   %+.2f%%\n", -tr.PerfDegradationPct)
	fmt.Printf("  perf delta (with overhead): %+.2f%%\n", -tr.PerfDegradationWithOverheadPct)
	fmt.Printf("  energy delta (with overhead): %+.2f%%\n", tr.EnergyDeltaWithOverheadPct)
}
