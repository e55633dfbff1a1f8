// Command sweep collects a characterization grid — the per-sample,
// per-setting time/energy matrix — for one benchmark and writes it as JSON.
//
// Usage:
//
//	sweep -bench gobmk [-space coarse|fine] [-o grid.json]
//	sweep -workload my-app.json            # user-defined workload file
//
// SIGINT/SIGTERM (or an elapsed -timeout) cancels the collection cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mcdvfs"
	"mcdvfs/internal/cliutil"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark name (see -list)")
	workloadFile := flag.String("workload", "", "JSON workload definition file (alternative to -bench)")
	space := flag.String("space", "coarse", "setting space: coarse (70) or fine (496)")
	out := flag.String("o", "", "output file (default stdout)")
	list := flag.Bool("list", false, "list benchmarks and exit")
	timeout := cliutil.TimeoutFlag(nil)
	flag.Parse()

	ctx, stop := cliutil.Context(*timeout)
	defer stop()
	if err := run(ctx, *bench, *workloadFile, *space, *out, *list); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, bench, workloadFile, spaceName, out string, list bool) error {
	if list {
		for _, name := range mcdvfs.Benchmarks() {
			fmt.Println(name)
		}
		return nil
	}
	var space *mcdvfs.Space
	switch spaceName {
	case "coarse":
		space = mcdvfs.CoarseSpace()
	case "fine":
		space = mcdvfs.FineSpace()
	default:
		return fmt.Errorf("unknown space %q", spaceName)
	}

	var grid *mcdvfs.Grid
	switch {
	case workloadFile != "":
		f, err := os.Open(workloadFile)
		if err != nil {
			return err
		}
		b, err := workload.ReadJSON(f)
		_ = f.Close() // read-only; the decode error below is the one that matters
		if err != nil {
			return err
		}
		sys, err := sim.New(sim.DefaultConfig())
		if err != nil {
			return err
		}
		grid, err = trace.CollectContext(ctx, sys, b, space, trace.CollectOptions{})
		if err != nil {
			return err
		}
	case bench != "":
		var err error
		grid, err = mcdvfs.Collect(ctx, bench, space)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("missing -bench or -workload (use -list to see built-ins)")
	}
	if grid.ConvergenceFailures > 0 {
		fmt.Fprintf(os.Stderr, "sweep: warning: %d cells did not converge within solver tolerance; the grid carries their last iterates\n",
			grid.ConvergenceFailures)
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := grid.WriteJSON(f); err != nil {
			_ = f.Close() // the write error takes precedence
			return err
		}
		return f.Close()
	}
	return grid.WriteJSON(os.Stdout)
}
