// Offline profile: the complete Section VII pipeline — characterize once,
// build a stable-region profile, persist it, and replay it at runtime with
// zero search cost, with a drift-triggered fallback for safety.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"mcdvfs"
	"mcdvfs/internal/governor"
	"mcdvfs/internal/profile"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/workload"
)

func main() {
	const (
		bench     = "milc"
		budget    = 1.3
		threshold = 0.05
	)

	// 1. Offline: characterize and profile.
	grid, err := mcdvfs.Collect(context.Background(), bench, mcdvfs.CoarseSpace())
	if err != nil {
		log.Fatal(err)
	}
	prof, err := profile.Build(grid, budget, threshold)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %s: %d samples -> %d stable regions\n", bench, prof.NumSamples(), len(prof.Regions))

	// 2. Persist and reload (what would ship with the application).
	var stored bytes.Buffer
	if err := prof.WriteJSON(&stored); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profile size on disk: %d bytes\n\n", stored.Len())
	loaded, err := profile.ReadJSON(&stored)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Runtime: replay the profile against the application, with a
	// budget-governor fallback in case the workload drifts.
	model, err := governor.NewSimModel(sim.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fallback, err := governor.NewBudget(governor.BudgetConfig{
		Budget: budget, Threshold: threshold,
		Space: mcdvfs.CoarseSpace(), Model: model,
		Search: governor.FromPrevious,
	})
	if err != nil {
		log.Fatal(err)
	}
	profGov, err := profile.NewGovernor(loaded, fallback, 0.5)
	if err != nil {
		log.Fatal(err)
	}

	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	specs := workload.MustByName(bench).MustRealize()

	searchGov, err := governor.NewBudget(governor.BudgetConfig{
		Budget: budget, Threshold: threshold,
		Space: mcdvfs.CoarseSpace(), Model: model,
		Search: governor.FromMax,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-28s %10s %10s %8s %8s %14s\n",
		"policy", "time (ms)", "mJ", "trans", "tunes", "overhead (ms)")
	for _, gv := range []governor.Governor{profGov, searchGov} {
		res, err := governor.Run(sys, specs, gv, governor.DefaultOverhead())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %10.1f %10.1f %8d %8d %14.2f\n",
			res.Governor, res.TimeNS/1e6, res.EnergyJ*1e3,
			res.Transitions, res.Tunes, res.OverheadNS/1e6)
	}
	fmt.Printf("\nfallback intervals during replay: %d (same application, so ~none)\n",
		profGov.FallbackIntervals())
	fmt.Println("The profile replay pays no search overhead at all: tuning work moved")
	fmt.Println("offline, exactly the paper's Section VII proposal.")
}
