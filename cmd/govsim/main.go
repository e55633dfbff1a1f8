// Command govsim runs an online governor against a benchmark and reports
// the end-to-end outcome: time, energy, achieved inefficiency, transitions,
// tuning events, and search work.
//
// Usage:
//
//	govsim -bench gobmk -gov budget -budget 1.3 -threshold 0.03 -search prev
//	govsim -bench lbm -gov performance
//
// SIGINT/SIGTERM (or an elapsed -timeout) cancels the reference-grid
// collection cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mcdvfs"
	"mcdvfs/internal/cliutil"
)

func main() {
	bench := flag.String("bench", "gobmk", "benchmark name")
	govName := flag.String("gov", "budget", "governor: budget, performance, powersave, userspace")
	budget := flag.Float64("budget", 1.3, "inefficiency budget (budget governor)")
	threshold := flag.Float64("threshold", 0.03, "cluster threshold (budget governor)")
	search := flag.String("search", "max", "search start: max or prev (budget governor)")
	stability := flag.Bool("stability", false, "enable stable-region-length prediction")
	cpu := flag.Float64("cpu", 1000, "CPU MHz (userspace governor)")
	mem := flag.Float64("mem", 800, "memory MHz (userspace governor)")
	timeout := cliutil.TimeoutFlag(nil)
	flag.Parse()

	ctx, stop := cliutil.Context(*timeout)
	defer stop()
	if err := run(ctx, *bench, *govName, *budget, *threshold, *search, *stability, *cpu, *mem); err != nil {
		fmt.Fprintln(os.Stderr, "govsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, bench, govName string, budget, threshold float64, search string, stability bool, cpu, mem float64) error {
	space := mcdvfs.CoarseSpace()
	var gov mcdvfs.Governor
	switch govName {
	case "performance":
		gov = mcdvfs.NewPerformanceGovernor(space)
	case "powersave":
		gov = mcdvfs.NewPowersaveGovernor(space)
	case "userspace":
		gov = mcdvfs.NewUserspaceGovernor(mcdvfs.Setting{CPU: mcdvfs.MHz(cpu), Mem: mcdvfs.MHz(mem)})
	case "budget":
		model, err := mcdvfs.NewGovernorModel()
		if err != nil {
			return err
		}
		start := mcdvfs.FromMax
		if search == "prev" {
			start = mcdvfs.FromPrevious
		} else if search != "max" {
			return fmt.Errorf("unknown search %q (use max or prev)", search)
		}
		gov, err = mcdvfs.NewBudgetGovernor(mcdvfs.BudgetGovernorConfig{
			Budget:       budget,
			Threshold:    threshold,
			Space:        space,
			Model:        model,
			Search:       start,
			UseStability: stability,
		})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown governor %q", govName)
	}

	sys, err := mcdvfs.NewSystem(mcdvfs.DefaultSystemConfig())
	if err != nil {
		return err
	}
	res, err := mcdvfs.RunGovernor(sys, bench, gov, mcdvfs.DefaultGovernorOverhead())
	if err != nil {
		return err
	}

	// Whole-run Emin reference for the achieved-inefficiency report.
	grid, err := mcdvfs.CollectOn(ctx, sys, bench, space)
	if err != nil {
		return err
	}
	_, emin := grid.EminSetting()

	fmt.Printf("benchmark          %s\n", bench)
	fmt.Printf("governor           %s\n", res.Governor)
	fmt.Printf("time               %.2f ms\n", res.TimeNS/1e6)
	fmt.Printf("energy             %.2f mJ\n", res.EnergyJ*1e3)
	fmt.Printf("inefficiency       %.3f (vs pinned-setting Emin)\n", res.EnergyJ/emin)
	fmt.Printf("transitions        %d\n", res.Transitions)
	fmt.Printf("tunes              %d\n", res.Tunes)
	fmt.Printf("settings searched  %d (%.1f per tune)\n", res.SettingsSearched, res.AvgSearchedPerTune())
	fmt.Printf("governor overhead  %.2f ms, %.1f µJ\n", res.OverheadNS/1e6, res.OverheadJ*1e6)
	return nil
}
