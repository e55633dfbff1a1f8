// Command profile builds and inspects offline stable-region profiles
// (paper Section VII): characterize a benchmark once, store the region
// schedule as JSON, and replay it at runtime with zero search cost.
//
// Usage:
//
//	profile build -bench lbm -budget 1.3 -threshold 0.05 -o lbm.profile.json
//	profile show -i lbm.profile.json
//	profile replay -i lbm.profile.json -bench lbm
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mcdvfs"
	"mcdvfs/internal/cliutil"
	"mcdvfs/internal/governor"
	"mcdvfs/internal/profile"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(1)
	}
	ctx, stop := cliutil.Context(0)
	defer stop()
	var err error
	switch os.Args[1] {
	case "build":
		err = cmdBuild(ctx, os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	default:
		usage()
		err = fmt.Errorf("unknown command %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "profile:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  profile build -bench <name> [-budget 1.3] [-threshold 0.05] [-o out.json]
  profile show -i profile.json
  profile replay -i profile.json -bench <name>`)
}

func cmdBuild(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark name")
	budget := fs.Float64("budget", 1.3, "inefficiency budget")
	threshold := fs.Float64("threshold", 0.05, "cluster threshold")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bench == "" {
		return fmt.Errorf("missing -bench")
	}
	grid, err := mcdvfs.Collect(ctx, *bench, mcdvfs.CoarseSpace())
	if err != nil {
		return err
	}
	if grid.ConvergenceFailures > 0 {
		fmt.Fprintf(os.Stderr, "profile: warning: %d cells did not converge within solver tolerance; the grid carries their last iterates\n",
			grid.ConvergenceFailures)
	}
	p, err := profile.Build(grid, *budget, *threshold)
	if err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := p.WriteJSON(f); err != nil {
			_ = f.Close() // the write error takes precedence
			return err
		}
		return f.Close()
	}
	return p.WriteJSON(os.Stdout)
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	in := fs.String("i", "", "profile file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := load(*in)
	if err != nil {
		return err
	}
	fmt.Printf("benchmark %s, budget %.2f, threshold %.0f%%, %d samples, %d regions\n",
		p.Benchmark, p.Budget, p.Threshold*100, p.NumSamples(), len(p.Regions))
	for i, r := range p.Regions {
		fmt.Printf("  region %2d [%3d,%3d] %-15v cpi %.2f mpki %.1f\n",
			i, r.Start, r.End, r.Setting, r.ExpectedCPI, r.ExpectedMPKI)
	}
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "", "profile file")
	bench := fs.String("bench", "", "benchmark to run under the profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := load(*in)
	if err != nil {
		return err
	}
	if *bench == "" {
		return fmt.Errorf("missing -bench")
	}
	b, err := workload.ByName(*bench)
	if err != nil {
		return err
	}
	specs, err := b.Realize()
	if err != nil {
		return err
	}
	gov, err := profile.NewGovernor(p, nil, 0)
	if err != nil {
		return err
	}
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		return err
	}
	res, err := governor.Run(sys, specs, gov, governor.DefaultOverhead())
	if err != nil {
		return err
	}
	fmt.Printf("replayed %s on %s: %.1f ms, %.1f mJ, %d transitions, zero search cost\n",
		p.Benchmark, *bench, res.TimeNS/1e6, res.EnergyJ*1e3, res.Transitions)
	return nil
}

func load(path string) (*profile.Profile, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -i")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:allow errflow read-only file; a close error after a successful read carries no data loss
	defer f.Close()
	return profile.ReadJSON(f)
}
