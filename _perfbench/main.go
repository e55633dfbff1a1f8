// Command perfbench is the repository's benchmark: it runs one named
// workload against the mcdvfs library or in-process mcdvfsd daemons, checks
// every output, and prints the workload's metrics, ending with one JSON
// result line. See README.md for the workloads and metrics.
//
//	perfbench --workload serve-hot --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // checkout root, for the source digest
	out      string // where records and spans are written
}

// workloads lists the workload names in BENCHMARK.json order.
var workloads = []string{"characterize", "serve-hot", "serve-miss", "cluster-ring"}

func main() {
	var o opts
	var seconds float64
	var trace int
	var golden string
	flag.StringVar(&o.workload, "workload", "", "workload: characterize, serve-hot, serve-miss or cluster-ring")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&seconds, "seconds", 25, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository checkout root")
	flag.StringVar(&o.out, "out", "", "output directory for records and spans (default <root>/.bench_build)")
	flag.StringVar(&golden, "write-golden", "", "characterize the registry and write the pinned digests to this file, then exit")
	flag.Parse()
	if golden != "" {
		if err := writeGolden(golden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	if o.out == "" {
		o.out = filepath.Join(o.root, ".bench_build")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// A run that overstays its budget this far is stuck: cancel its work,
	// and if that does not end it, exit, always inside 170 seconds.
	budget := min(2*o.seconds+60*time.Second, 150*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	watchdog := time.AfterFunc(budget+20*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time budget")
		os.Exit(3)
	})
	defer watchdog.Stop()

	rep, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.Wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong outputs\n", rep.Wrong)
		os.Exit(2)
	}
}

func run(ctx context.Context, o opts) (*Report, error) {
	if o.workload == "characterize" {
		return runCharacterize(ctx, o)
	}
	spec, ok := servingSpecs()[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (valid: %v)", o.workload, workloads)
	}
	return runServing(ctx, o, spec)
}
