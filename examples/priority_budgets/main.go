// Priority budgets: the paper's Section II-A proposes that "the OS can
// also set the inefficiency budget based on application's priority,
// allowing the higher priority applications to burn more energy than lower
// priority applications."
//
// This example plays an OS that hosts a foreground app (user-facing,
// high priority) and a background app (low priority) and assigns them
// different inefficiency budgets. Because inefficiency is relative to each
// application's own Emin, one policy knob works for both applications
// without knowing either one's absolute energy needs — the property that
// makes the metric practical.
package main

import (
	"context"
	"fmt"
	"log"

	"mcdvfs"
)

type app struct {
	name     string
	bench    string
	priority string
	budget   float64
}

func main() {
	apps := []app{
		{"video-game (foreground)", "gobmk", "high", 1.5},
		{"photo-indexer (background)", "milc", "low", 1.1},
	}

	sys, err := mcdvfs.NewSystem(mcdvfs.DefaultSystemConfig())
	if err != nil {
		log.Fatal(err)
	}
	space := mcdvfs.CoarseSpace()
	model, err := mcdvfs.NewGovernorModel()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-28s %-8s %-7s %10s %11s %8s %9s\n",
		"application", "priority", "budget", "time (ms)", "energy (mJ)", "ineff", "vs I=inf")
	for _, a := range apps {
		gov, err := mcdvfs.NewBudgetGovernor(mcdvfs.BudgetGovernorConfig{
			Budget:    a.budget,
			Threshold: 0.03,
			Space:     space,
			Model:     model,
			Search:    mcdvfs.FromPrevious,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := mcdvfs.RunGovernor(sys, a.bench, gov, mcdvfs.DefaultGovernorOverhead())
		if err != nil {
			log.Fatal(err)
		}

		// References: the application's own Emin and its unconstrained
		// (performance-governor) run.
		grid, err := mcdvfs.CollectOn(context.Background(), sys, a.bench, space)
		if err != nil {
			log.Fatal(err)
		}
		_, emin := grid.EminSetting()
		perf, err := mcdvfs.RunGovernor(sys, a.bench, mcdvfs.NewPerformanceGovernor(space), mcdvfs.DefaultGovernorOverhead())
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-28s %-8s %-7.1f %10.1f %11.1f %8.2f %8.2fx\n",
			a.name, a.priority, a.budget,
			res.TimeNS/1e6, res.EnergyJ*1e3, res.EnergyJ/emin,
			res.TimeNS/perf.TimeNS)
	}
	fmt.Println("\nOne knob, two applications: the foreground app spends up to 50% extra")
	fmt.Println("energy for responsiveness while the background app stays near its most")
	fmt.Println("efficient point — no absolute energy numbers were configured anywhere.")
}
