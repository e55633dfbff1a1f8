package serve

// Load-harness integration tests, all in-process against httptest so CI
// needs no network or daemon. TestLoadSmoke is the `make loadtest` tier:
// `go test ./internal/serve -run TestLoadSmoke -args -loadsmoke=5s` runs
// the full-length smoke; the default duration keeps tier-1 fast.

import (
	"context"
	"flag"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcdvfs/internal/workload"
)

var loadsmoke = flag.Duration("loadsmoke", 800*time.Millisecond, "duration of the load smoke test")

// TestLoadDeterministic replays the same (seed, clients, requests) run
// twice and requires the identical request mix — the property that makes
// load results comparable across branches.
func TestLoadDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cfg := LoadConfig{
		Targets:  []string{ts.URL},
		Clients:  4,
		Requests: 120,
		Seed:     42,
		Client:   ts.Client(),
	}
	first, err := RunLoad(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	second, err := RunLoad(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunLoad (replay): %v", err)
	}
	for _, r := range []*LoadReport{first, second} {
		if r.Requests != cfg.Requests {
			t.Fatalf("%d requests issued, want %d", r.Requests, cfg.Requests)
		}
		if r.Status5xx != 0 || r.TransportErrors != 0 {
			t.Fatalf("unhealthy run: %s", r)
		}
	}
	if len(first.Endpoints) == 0 {
		t.Fatal("no endpoints exercised")
	}
	for ep, es := range first.Endpoints {
		if second.Endpoints[ep].Count != es.Count {
			t.Errorf("endpoint %s: %d requests vs %d on replay — load is not deterministic",
				ep, es.Count, second.Endpoints[ep].Count)
		}
	}
	// The second run hits only warm caches: zero new collections.
	if second.GridCollections != 0 {
		t.Errorf("replay collected %d grids, want 0 (all cached)", second.GridCollections)
	}
	if second.GridRequests > 0 && second.GridCacheHits != second.GridRequests {
		t.Errorf("replay: %d/%d grid requests were cache hits, want all",
			second.GridCacheHits, second.GridRequests)
	}
}

// TestLoadRequestBudgetBelowClients: a budget smaller than the client
// count is still the exact number of requests issued. A client with no
// share of the budget must not run unbounded; the context only keeps a
// regression from hanging the suite.
func TestLoadRequestBudgetBelowClients(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	report, err := RunLoad(ctx, LoadConfig{
		Targets:  []string{ts.URL},
		Clients:  8,
		Requests: 3,
		Seed:     11,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if report.Requests != 3 {
		t.Fatalf("%d requests issued, want exactly 3", report.Requests)
	}
	if report.Status5xx != 0 || report.TransportErrors != 0 {
		t.Fatalf("unhealthy run: %s", report)
	}
}

// TestLoadNeedsTargets: a run with nowhere to send requests is refused up
// front instead of reporting every request as a transport error.
func TestLoadNeedsTargets(t *testing.T) {
	if _, err := RunLoad(context.Background(), LoadConfig{Requests: 3}); err == nil {
		t.Error("a load run with no targets was accepted")
	}
}

// TestLoadSmoke is the acceptance smoke: a zipfian mixed load must finish
// with zero 5xx and zero transport errors, the coalescing layer must
// absorb most grid demand, and — on runs long enough to be past warmup
// (>= 3s, i.e. the `make loadtest` tier) — cached /v1/optimal p99 must
// stay under 10ms.
func TestLoadSmoke(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	report, err := RunLoad(context.Background(), LoadConfig{
		Targets:  []string{ts.URL},
		Clients:  8,
		Duration: *loadsmoke,
		Seed:     7,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	t.Logf("smoke (%v):\n%s", *loadsmoke, report)

	if report.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if report.Status5xx != 0 {
		t.Fatalf("%d 5xx responses, want 0", report.Status5xx)
	}
	if report.TransportErrors != 0 {
		t.Fatalf("%d transport errors, want 0", report.TransportErrors)
	}
	// Traffic-shape assertions only make sense once the run is long enough
	// to be past warmup — the `make loadtest` tier. (Short or -race runs
	// complete too few requests; deterministic coalescing is proven by
	// TestGridCoalescing64 regardless.)
	if *loadsmoke < 3*time.Second {
		return
	}
	if report.GridRequests == 0 {
		t.Fatal("no grid demand observed; mix broken")
	}
	// Nearly all grid demand is absorbed without collecting: at most one
	// collection per benchmark in the zipfian pool.
	benches := len(workload.HeadlineNames())
	if report.GridCollections > int64(benches) {
		t.Errorf("%d collections for %d benchmarks — coalescing not absorbing",
			report.GridCollections, benches)
	}
	if report.CoalesceHitRate < 0.5 {
		t.Errorf("coalesce hit rate %.2f, want >= 0.5 under zipfian load", report.CoalesceHitRate)
	}
	if opt, ok := report.Endpoints["optimal"]; !ok || opt.Count == 0 {
		t.Fatal("no /v1/optimal traffic in smoke run")
	}

	// Latency acceptance: with every grid warm from the pass above, a
	// dedicated optimal-only measurement pass (low concurrency, so client
	// queueing doesn't pollute the numbers on small CI machines) must serve
	// cached /v1/optimal with p99 under 10ms.
	measured, err := RunLoad(context.Background(), LoadConfig{
		Targets:  []string{ts.URL},
		Clients:  2,
		Requests: 400,
		Seed:     7,
		Mix:      LoadMix{Optimal: 1},
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatalf("RunLoad (measurement): %v", err)
	}
	opt := measured.Endpoints["optimal"]
	t.Logf("cached optimal: %d requests, %d memo hits, p50 %.2fms p99 %.2fms",
		opt.Count, measured.OptimalMemoHits, opt.P50, opt.P99)
	if measured.OptimalMemoHits < int64(opt.Count)*9/10 {
		t.Errorf("only %d/%d optimal requests were memo hits; measurement pass not cached",
			measured.OptimalMemoHits, opt.Count)
	}
	if opt.P99 >= 10 {
		t.Errorf("cached /v1/optimal p99 = %.2fms, want < 10ms", opt.P99)
	}
}

// TestLoadScrapeWarningsAttributed pins the multi-target warning contract:
// a dark node's failed /metrics scrapes are attributed to its URL and run
// phase, and the live node's counters still aggregate — never an anonymous
// warning, never a silent zero delta.
func TestLoadScrapeWarningsAttributed(t *testing.T) {
	_, live := newTestServer(t, Config{})
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close() // traffic and scrapes to this URL now fail at the transport

	report, err := RunLoad(context.Background(), LoadConfig{
		Targets:  []string{live.URL, deadURL},
		Clients:  2,
		Requests: 16,
		Seed:     3,
		Client:   live.Client(),
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if len(report.ScrapeWarnings) != 2 {
		t.Fatalf("got %d scrape warnings, want 2 (before+after for the dead target): %v",
			len(report.ScrapeWarnings), report.ScrapeWarnings)
	}
	phases := map[string]bool{}
	for _, w := range report.ScrapeWarnings {
		if w.Target != deadURL {
			t.Errorf("warning attributed to %q, want the dead target %q", w.Target, deadURL)
		}
		if w.Err == "" {
			t.Errorf("warning for %s has an empty error", w.Target)
		}
		phases[w.Phase] = true
	}
	if !phases["before"] || !phases["after"] {
		t.Errorf("warning phases = %v, want both before and after", phases)
	}
	if _, ok := report.NodeGridCollections[deadURL]; ok {
		t.Error("dead target has a per-node collection delta; unknown counters must stay absent")
	}
	rendered := report.String()
	if !strings.Contains(rendered, deadURL) {
		t.Errorf("rendered report does not name the dark node %s:\n%s", deadURL, rendered)
	}
}
