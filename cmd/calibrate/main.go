// Command calibrate prints the calibration summary of the simulated
// platform: per-benchmark Imax, inefficiency at the slowest and fastest
// settings, the Emin setting, optimal-tracking transition rates, and
// stable-region counts. This is the table used to verify the platform
// against the paper's reported shapes (see DESIGN.md §3 and
// EXPERIMENTS.md).
package main

import (
	"context"
	"fmt"
	"os"

	"mcdvfs"
	"mcdvfs/internal/cliutil"
)

func main() {
	ctx, stop := cliutil.Context(0)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	space := mcdvfs.CoarseSpace()
	minID, _ := space.ID(space.Min())
	maxID, _ := space.ID(space.Max())
	fmt.Printf("%-11s %6s %7s %7s %9s %12s %8s %8s %8s\n",
		"benchmark", "Imax", "I(slow)", "I(fast)", "Emin@", "optT/Binstr", "reg(1%)", "reg(3%)", "reg(5%)")
	for _, name := range mcdvfs.HeadlineBenchmarks() {
		g, err := mcdvfs.Collect(ctx, name, space)
		if err != nil {
			return err
		}
		if g.ConvergenceFailures > 0 {
			fmt.Fprintf(os.Stderr, "calibrate: warning: %s: %d cells did not converge within solver tolerance; the grid carries their last iterates\n",
				name, g.ConvergenceFailures)
		}
		a, err := mcdvfs.Analyze(g)
		if err != nil {
			return err
		}
		bestK, _ := g.EminSetting()
		sch, err := a.OptimalSchedule(1.3)
		if err != nil {
			return err
		}
		regs := make([]int, 0, 3)
		for _, th := range []float64{0.01, 0.03, 0.05} {
			r, err := a.StableRegions(1.3, th)
			if err != nil {
				return err
			}
			regs = append(regs, len(r))
		}
		fmt.Printf("%-11s %6.2f %7.2f %7.2f %9v %12.0f %8d %8d %8d\n",
			name, a.MaxInefficiency(), a.RunInefficiency(minID), a.RunInefficiency(maxID),
			g.Setting(bestK), a.TransitionsPerBillion(sch.Transitions()),
			regs[0], regs[1], regs[2])
	}
	return nil
}
