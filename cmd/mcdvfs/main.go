// Command mcdvfs regenerates the paper's evaluation figures.
//
// Usage:
//
//	mcdvfs list                          list available experiments
//	mcdvfs [flags] run <id>...           run one or more experiments (e.g. fig8)
//	mcdvfs [flags] all                   run every experiment in paper order
//
// Flags:
//
//	-workers N      collection worker-pool size (0 = all cores)
//
// Each experiment prints aligned text tables reproducing the corresponding
// figure of the paper. Grids are collected once per run and shared by
// every experiment in it. SIGINT or SIGTERM stops a run at its next
// collection.
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
	workers := flag.Int("workers", 0, "collection worker-pool size (0 = all cores)")
	flag.Usage = func() { usage() }
	flag.Parse()

	var opts []mcdvfs.LabOption
	if *workers != 0 {
		opts = append(opts, mcdvfs.WithWorkers(*workers))
	}
	ctx, stop := cliutil.Context(0)
	defer stop()
	if err := run(ctx, flag.Args(), opts); err != nil {
		fmt.Fprintln(os.Stderr, "mcdvfs:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, labOpts []mcdvfs.LabOption) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "list":
		for _, e := range mcdvfs.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Description)
		}
		return nil
	case "workloads":
		fmt.Printf("%-12s %-5s %8s %9s %10s %10s\n",
			"benchmark", "class", "samples", "instr (B)", "mean CPI*", "mean MPKI")
		for _, name := range mcdvfs.Benchmarks() {
			b, err := mcdvfs.BenchmarkByName(name)
			if err != nil {
				return err
			}
			var cpi, mpki float64
			specs, err := b.Realize()
			if err != nil {
				return err
			}
			for _, s := range specs {
				cpi += s.BaseCPI
				mpki += s.MPKI
			}
			n := float64(len(specs))
			fmt.Printf("%-12s %-5s %8d %9.2f %10.2f %10.1f\n",
				b.Name, b.Class, b.NumSamples(), float64(b.Instructions())/1e9, cpi/n, mpki/n)
		}
		fmt.Println("\n* base CPI (all hits on-chip), before memory stalls")
		return nil
	case "run":
		if len(args) < 2 {
			return fmt.Errorf("run: need at least one experiment id")
		}
		lab, err := mcdvfs.NewLab(labOpts...)
		if err != nil {
			return err
		}
		for _, id := range args[1:] {
			e, err := mcdvfs.ExperimentByID(id)
			if err != nil {
				return err
			}
			if err := e.Run(ctx, lab, os.Stdout); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Println()
		}
		return nil
	case "all":
		lab, err := mcdvfs.NewLab(labOpts...)
		if err != nil {
			return err
		}
		for _, e := range mcdvfs.Experiments() {
			fmt.Printf("### %s — %s\n\n", e.ID, e.Description)
			if err := e.Run(ctx, lab, os.Stdout); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Println()
		}
		return nil
	case "-h", "--help", "help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mcdvfs list                  list available experiments
  mcdvfs workloads             list the benchmark suite
  mcdvfs [flags] run <id>...   run experiments by id (fig2..fig12, extensions)
  mcdvfs [flags] all           run every experiment

flags:
  -workers N      collection worker-pool size (0 = all cores)`)
}
