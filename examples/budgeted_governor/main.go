// Budgeted governor: run online frequency governors — the scenario the
// paper's introduction motivates, a battery-constrained device that must
// deliver the best performance it can within an energy budget.
//
// The example compares the Linux-style static governors against the
// paper-inspired inefficiency-budget governor in three variants:
// CoScale-style restart-from-max search, start-from-previous search, and
// start-from-previous with stable-region-length prediction.
package main

import (
	"context"
	"fmt"
	"log"

	"mcdvfs"
)

func main() {
	const (
		bench     = "milc"
		budget    = 1.3
		threshold = 0.03
	)
	sys, err := mcdvfs.NewSystem(mcdvfs.DefaultSystemConfig())
	if err != nil {
		log.Fatal(err)
	}
	space := mcdvfs.CoarseSpace()
	model, err := mcdvfs.NewGovernorModel()
	if err != nil {
		log.Fatal(err)
	}

	mkBudget := func(search mcdvfs.SearchStart, stability bool) mcdvfs.Governor {
		gov, err := mcdvfs.NewBudgetGovernor(mcdvfs.BudgetGovernorConfig{
			Budget:       budget,
			Threshold:    threshold,
			Space:        space,
			Model:        model,
			Search:       search,
			UseStability: stability,
		})
		if err != nil {
			log.Fatal(err)
		}
		return gov
	}

	governors := []mcdvfs.Governor{
		mcdvfs.NewPerformanceGovernor(space),
		mcdvfs.NewPowersaveGovernor(space),
		mkBudget(mcdvfs.FromMax, false),
		mkBudget(mcdvfs.FromPrevious, false),
		mkBudget(mcdvfs.FromPrevious, true),
	}

	// Whole-run Emin reference so achieved inefficiency can be reported.
	grid, err := mcdvfs.CollectOn(context.Background(), sys, bench, space)
	if err != nil {
		log.Fatal(err)
	}
	_, emin := grid.EminSetting()

	fmt.Printf("benchmark %s, inefficiency budget %.1f, cluster threshold %.0f%%\n\n",
		bench, budget, threshold*100)
	fmt.Printf("%-32s %9s %9s %6s %6s %6s %10s\n",
		"governor", "time(ms)", "mJ", "ineff", "trans", "tunes", "sched/tune")
	for _, gov := range governors {
		res, err := mcdvfs.RunGovernor(sys, bench, gov, mcdvfs.DefaultGovernorOverhead())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s %9.1f %9.1f %6.2f %6d %6d %10.1f\n",
			res.Governor, res.TimeNS/1e6, res.EnergyJ*1e3, res.EnergyJ/emin,
			res.Transitions, res.Tunes, res.AvgSearchedPerTune())
	}
	fmt.Println("\nThe budget governors deliver most of the performance governor's speed")
	fmt.Println("while respecting the energy budget; the from-previous search evaluates")
	fmt.Println("far fewer settings per tune, and stability prediction skips whole tunes.")
}
