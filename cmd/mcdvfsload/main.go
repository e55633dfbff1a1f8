// Command mcdvfsload drives a closed-loop load against a running mcdvfsd
// and reports per-endpoint latency quantiles plus the daemon's own cache
// counters, so coalescing and memoization effectiveness are visible from
// the client side.
//
// Usage:
//
//	mcdvfsload -c 8 -d 10s                     # the daemon at http://127.0.0.1:8080
//	mcdvfsload -targets http://127.0.0.1:8080 -c 64 -n 6400 -seed 1  # deterministic
//
// With several -targets it drives a cluster: each client rotates through
// the node URLs, and the report's cache counters become cluster-wide sums
// with a per-node collection breakdown — the cluster-wide coalescing hit
// rate is read straight off the run.
//
//	mcdvfsload -targets http://a:8080,http://b:8080,http://c:8080 -c 64 -n 6400
//
// The exit status is nonzero if any request got a 5xx or failed at the
// transport level, which is what `make loadtest` keys off.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"mcdvfs/internal/cliutil"
	"mcdvfs/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, drives one load run and prints its report. It returns
// the exit status: 0 for a healthy run or -h, 1 for a malformed mix or a
// failed or unhealthy run, and 2 for a flag the command does not define
// or cannot parse, as flag.ExitOnError would.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcdvfsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	targets := fs.String("targets", "http://127.0.0.1:8080",
		"comma-separated daemon base URLs; with several, each client rotates through them")
	clients := fs.Int("c", 8, "concurrent closed-loop clients")
	duration := fs.Duration("d", 5*time.Second, "run duration (ignored when -n is set)")
	requests := fs.Int("n", 0, "total request budget (deterministic mode; 0 = run for -d)")
	seed := fs.Int64("seed", 1, "base RNG seed (client i uses seed+i)")
	zipf := fs.Float64("zipf", 1.4, "zipf skew of benchmark popularity (>1)")
	mixSpec := fs.String("mix", "", "request mix, e.g. grid=10,optimal=70,stability=10,emin=5,benchmarks=5")
	space := fs.String("space", "coarse", "setting space for grid/optimal requests")
	budget := fs.Float64("budget", 1.3, "inefficiency budget for optimal requests")
	timeout := cliutil.TimeoutFlag(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	mix, err := parseMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(stderr, "mcdvfsload:", err)
		return 1
	}
	ctx, stop := cliutil.Context(*timeout)
	defer stop()
	report, err := serve.RunLoad(ctx, serve.LoadConfig{
		Targets:  parseTargets(*targets),
		Clients:  *clients,
		Requests: *requests,
		Duration: *duration,
		Seed:     *seed,
		Mix:      mix,
		ZipfS:    *zipf,
		Space:    *space,
		Budget:   *budget,
	})
	if err != nil {
		fmt.Fprintln(stderr, "mcdvfsload:", err)
		return 1
	}
	fmt.Fprint(stdout, report)
	if report.Status5xx > 0 || report.TransportErrors > 0 {
		fmt.Fprintf(stderr, "mcdvfsload: unhealthy run: %d 5xx, %d transport errors\n",
			report.Status5xx, report.TransportErrors)
		return 1
	}
	return 0
}

// parseTargets splits the -targets list, trimming spaces and trailing
// slashes; empty entries drop out, and a list with none left is nil,
// which RunLoad refuses.
func parseTargets(spec string) []string {
	var out []string
	for _, t := range strings.Split(spec, ",") {
		if t = strings.TrimRight(strings.TrimSpace(t), "/"); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// parseMix reads "grid=10,optimal=70,..." into a LoadMix; an empty spec
// selects the default mix.
func parseMix(spec string) (serve.LoadMix, error) {
	var m serve.LoadMix
	if spec == "" {
		return m, nil // zero value defaults inside RunLoad
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("bad mix entry %q (want name=weight)", part)
		}
		w, err := strconv.Atoi(v)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", part)
		}
		switch k {
		case "grid":
			m.Grid = w
		case "optimal":
			m.Optimal = w
		case "stability":
			m.Stability = w
		case "emin":
			m.Emin = w
		case "benchmarks":
			m.Benchmarks = w
		default:
			return m, fmt.Errorf("unknown mix endpoint %q", k)
		}
	}
	if m.Grid+m.Optimal+m.Stability+m.Emin+m.Benchmarks == 0 {
		return m, fmt.Errorf("mix %q has zero total weight", spec)
	}
	return m, nil
}
