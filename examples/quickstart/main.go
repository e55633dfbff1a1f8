// Quickstart: collect a characterization grid for one benchmark, compute
// the inefficiency metric, and pick optimal settings under an energy
// constraint — the library's core loop in ~50 lines.
package main

import (
	"context"
	"fmt"
	"log"

	"mcdvfs"
)

func main() {
	// Sweep gobmk across the paper's 70-setting space (10 CPU x 7 memory
	// frequencies) on the simulated platform.
	grid, err := mcdvfs.Collect(context.Background(), "gobmk", mcdvfs.CoarseSpace())
	if err != nil {
		log.Fatal(err)
	}
	analysis, err := mcdvfs.Analyze(grid)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark: %s (%d samples x %d settings)\n",
		grid.Benchmark, grid.NumSamples(), grid.NumSettings())
	fmt.Printf("Imax (largest whole-run inefficiency): %.2f\n\n", analysis.MaxInefficiency())

	// Whole-run inefficiency and speedup at the extreme settings: the
	// paper's headline observation is that BOTH waste energy.
	space := mcdvfs.CoarseSpace()
	for _, st := range []mcdvfs.Setting{space.Min(), space.Max()} {
		id, _ := space.ID(st)
		fmt.Printf("pinned at %-14v inefficiency %.2f, speedup %.2fx\n",
			st, analysis.RunInefficiency(id), analysis.RunSpeedup(id))
	}
	fmt.Println()

	// Per-sample optimal settings under an inefficiency budget of 1.3:
	// the best-performing setting that burns at most 30% more energy than
	// the most efficient execution of the same work.
	const budget = 1.3
	fmt.Printf("first 10 samples, optimal setting under inefficiency budget %.1f:\n", budget)
	for s := 0; s < 10 && s < grid.NumSamples(); s++ {
		k, err := analysis.OptimalSetting(s, budget)
		if err != nil {
			log.Fatal(err)
		}
		m := grid.At(s, k)
		fmt.Printf("  sample %2d: %-14v (CPI %.2f, MPKI %5.1f, inefficiency %.2f)\n",
			s, grid.Setting(k), m.CPI, m.MPKI, analysis.Inefficiency(s, k))
	}

	// Tracking the optimal every sample is expensive; stable regions show
	// how long one setting can be held with a 5% performance allowance.
	regions, err := analysis.StableRegions(budget, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstable regions at budget %.1f, threshold 5%%: %d regions over %d samples (%d transitions)\n",
		budget, len(regions), grid.NumSamples(), len(regions)-1)
}
