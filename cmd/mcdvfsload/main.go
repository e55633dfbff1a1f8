// Command mcdvfsload drives a closed-loop load against a running mcdvfsd
// and reports per-endpoint latency quantiles plus the daemon's own cache
// counters, so coalescing and memoization effectiveness are visible from
// the client side.
//
// Usage:
//
//	mcdvfsload -url http://127.0.0.1:8080 -c 8 -d 10s
//	mcdvfsload -url http://127.0.0.1:8080 -c 64 -n 6400 -seed 1  # deterministic
//
// Multi-target mode drives a cluster: -targets takes every node's URL,
// -policy picks how each request chooses one, and the report's cache
// counters become cluster-wide sums with a per-node collection breakdown
// — the cluster-wide coalescing hit rate is read straight off the run.
//
//	mcdvfsload -targets http://a:8080,http://b:8080,http://c:8080 -policy random -c 64 -n 6400
//
// The exit status is nonzero if any request got a 5xx or failed at the
// transport level, which is what `make loadtest` keys off.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mcdvfs/internal/cliutil"
	"mcdvfs/internal/serve"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "daemon base URL")
	targets := flag.String("targets", "", "comma-separated cluster node URLs (overrides -url)")
	policy := flag.String("policy", serve.PolicyRoundRobin,
		"per-request target selection for -targets: round-robin or random")
	clients := flag.Int("c", 8, "concurrent closed-loop clients")
	duration := flag.Duration("d", 5*time.Second, "run duration (ignored when -n is set)")
	requests := flag.Int("n", 0, "total request budget (deterministic mode; 0 = run for -d)")
	seed := flag.Int64("seed", 1, "base RNG seed (client i uses seed+i)")
	zipf := flag.Float64("zipf", 1.4, "zipf skew of benchmark popularity (>1)")
	mix := flag.String("mix", "", "request mix, e.g. grid=10,optimal=70,stability=10,emin=5,benchmarks=5")
	space := flag.String("space", "coarse", "setting space for grid/optimal requests")
	budget := flag.Float64("budget", 1.3, "inefficiency budget for optimal requests")
	retryAfterMax := flag.Duration("retry-after-max", 2*time.Second,
		"cap on honoring a 429's Retry-After hint (negative = ignore hints)")
	timeout := cliutil.TimeoutFlag(nil)
	flag.Parse()

	if err := run(*url, *targets, *policy, *clients, *duration, *requests,
		*seed, *zipf, *mix, *space, *budget, *retryAfterMax, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "mcdvfsload:", err)
		os.Exit(1)
	}
}

func run(url, targets, policy string, clients int, duration time.Duration, requests int,
	seed int64, zipf float64, mixSpec, space string, budget float64,
	retryAfterMax, timeout time.Duration) error {
	mix, err := parseMix(mixSpec)
	if err != nil {
		return err
	}
	ctx, stop := cliutil.Context(timeout)
	defer stop()

	list := parseTargets(targets)
	if list == nil {
		list = []string{strings.TrimRight(url, "/")}
	}
	report, err := serve.RunLoad(ctx, serve.LoadConfig{
		Targets:       list,
		Policy:        policy,
		Clients:       clients,
		Requests:      requests,
		Duration:      duration,
		Seed:          seed,
		Mix:           mix,
		ZipfS:         zipf,
		Space:         space,
		Budget:        budget,
		RetryAfterMax: retryAfterMax,
	})
	if err != nil {
		return err
	}
	fmt.Print(report)
	if report.Status5xx > 0 || report.TransportErrors > 0 {
		return fmt.Errorf("unhealthy run: %d 5xx, %d transport errors",
			report.Status5xx, report.TransportErrors)
	}
	return nil
}

// parseTargets splits the -targets list; empty entries drop out and an
// empty spec returns nil so run falls back to -url.
func parseTargets(spec string) []string {
	if spec == "" {
		return nil
	}
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
