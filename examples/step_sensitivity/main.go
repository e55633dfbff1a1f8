// Step sensitivity: how does the number of available frequency steps
// affect the characterization? Reproduces the paper's Section VI-D study
// (Figure 12): the 70-setting coarse space (100 MHz steps) against the
// 496-setting fine space (30 MHz CPU / 40 MHz memory steps) on gobmk.
//
// Finer steps give better choices — so clusters move more and stable
// regions shrink — but buy almost no end-to-end performance when tuning is
// free, while making every search ~7x more expensive.
package main

import (
	"context"
	"fmt"
	"log"

	"mcdvfs"
)

func main() {
	const (
		bench     = "gobmk"
		budget    = 1.3
		threshold = 0.01
	)
	lab, err := mcdvfs.NewLab()
	if err != nil {
		log.Fatal(err)
	}
	res, err := lab.Fig12(context.Background(), bench, budget, threshold)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s at inefficiency budget %.1f, cluster threshold %.0f%%\n\n", bench, budget, threshold*100)
	fmt.Printf("%-18s %10s %14s %10s %12s\n", "space", "settings", "mean cluster", "regions", "mean length")
	fmt.Printf("%-18s %10d %14.1f %10d %12.1f\n", "coarse (100MHz)",
		res.Coarse.Settings, res.Coarse.MeanClusterSize, res.Coarse.Regions, res.Coarse.MeanRegionLen)
	fmt.Printf("%-18s %10d %14.1f %10d %12.1f\n", "fine (30/40MHz)",
		res.Fine.Settings, res.Fine.MeanClusterSize, res.Fine.Regions, res.Fine.MeanRegionLen)
	fmt.Printf("\nfine-grid optimal-tracking performance gain (free tuning): %.2f%%\n", res.PerfGainPct)
	fmt.Println("\nThe paper's conclusion: the balance between tuning overhead and the")
	fmt.Println("energy-performance gain decides the right search-space size — fine")
	fmt.Println("steps buy little performance but multiply the search cost.")
}
