package serve

// The closed-loop load generator behind cmd/mcdvfsload and the smoke tier:
// N clients issue requests back-to-back against a running daemon, each
// drawing its benchmark from a zipfian popularity distribution (a few hot
// benchmarks, a long cold tail — the shape that makes the coalescing and
// LRU layers earn their keep) and its endpoint from a weighted mix. All
// randomness is seeded per client, so a (seed, clients, requests) triple
// replays the identical request sequence.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcdvfs/internal/stats"
	"mcdvfs/internal/workload"
)

// LoadMix weights the request types. Zero-valued mixes default to
// DefaultLoadMix; a weight of 0 disables that endpoint.
type LoadMix struct {
	Grid       int
	Optimal    int
	Stability  int
	Emin       int
	Benchmarks int
}

// DefaultLoadMix approximates a production query mix: mostly schedule
// decisions, some raw grids, a sprinkle of predictor and registry calls.
func DefaultLoadMix() LoadMix {
	return LoadMix{Grid: 10, Optimal: 70, Stability: 10, Emin: 5, Benchmarks: 5}
}

func (m LoadMix) total() int { return m.Grid + m.Optimal + m.Stability + m.Emin + m.Benchmarks }

// maxRetryAfter caps how long a shed (429) response's Retry-After hint is
// honored before the client's next request.
const maxRetryAfter = 2 * time.Second

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// Targets lists the daemon roots, e.g. "http://127.0.0.1:8080"; at
	// least one is required. With several, each client rotates through
	// them (client i starts at target i, so clients spread immediately),
	// and the report's cache counters are cluster-wide sums of per-node
	// /metrics deltas.
	Targets []string
	// Clients is the closed-loop concurrency. Default 8; never more than
	// a positive Requests budget.
	Clients int
	// Requests, when positive, is the total request budget split across
	// clients — the deterministic mode. When zero, clients run until
	// Duration elapses (or ctx is cancelled).
	Requests int
	// Duration bounds a Requests==0 run. Default 5s.
	Duration time.Duration
	// Seed feeds every client's generator (client i uses Seed+i).
	Seed int64
	// Mix weights the endpoints; zero value means DefaultLoadMix.
	Mix LoadMix
	// ZipfS is the zipf skew (>1; larger = hotter head) over the headline
	// benchmarks, ranked in workload.HeadlineNames order. Default 1.4.
	ZipfS float64
	// Space and Budget parameterize grid/optimal requests.
	Space  string
	Budget float64
	// Client overrides the HTTP client (tests inject the in-process one).
	Client *http.Client
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	// A client with no share of the budget would read 0 as "unbounded".
	if c.Requests > 0 && c.Clients > c.Requests {
		c.Clients = c.Requests
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Mix.total() == 0 {
		c.Mix = DefaultLoadMix()
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.4
	}
	if c.Space == "" {
		c.Space = "coarse"
	}
	if c.Budget <= 0 {
		c.Budget = 1.3
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// EndpointStats summarizes one endpoint's latencies in milliseconds.
type EndpointStats struct {
	Count  int
	Errors int // non-2xx responses
	P50    float64
	P95    float64
	P99    float64
	Max    float64
}

// LoadReport is the outcome of one load run.
type LoadReport struct {
	Requests        int
	Status2xx       int
	Status4xx       int
	Status5xx       int
	Shed            int // 429 responses (coalesced into Status4xx too)
	TransportErrors int
	Endpoints       map[string]EndpointStats

	// Deltas of the daemons' own counters across the run, scraped from
	// each target's /metrics and summed; zero when every scrape failed.
	// Against a cluster these are cluster-wide totals.
	GridRequests    int64
	GridCollections int64
	GridCacheHits   int64
	OptimalRequests int64
	OptimalMemoHits int64
	// CoalesceHitRate is GridCacheHits / GridRequests over the run, the
	// fraction of grid demands absorbed without collecting. -1 when no
	// grid requests were observed.
	CoalesceHitRate float64
	// NodeGridCollections breaks GridCollections down per target, the
	// sharding-balance view of a multi-target run. Only targets whose
	// scrapes succeeded appear.
	NodeGridCollections map[string]int64
	// ScrapeWarnings records /metrics scrape failures, one entry per
	// affected target and phase. A dead /metrics endpoint must read as
	// "counters unavailable", never as a 0% coalescing hit rate — and in
	// a multi-target run the warning names WHICH node was dark.
	ScrapeWarnings []ScrapeWarning
}

// ScrapeWarning is one failed /metrics scrape, attributed to the target
// URL and the run phase so a dark node is identifiable from the summary.
type ScrapeWarning struct {
	// Target is the node base URL whose scrape failed.
	Target string
	// Phase is "before" or "after": which end of the run lost counters.
	Phase string
	// Err is the scrape failure.
	Err string
}

func (w ScrapeWarning) String() string {
	return fmt.Sprintf("%s-run /metrics scrape of %s failed: %s (cache counters for this node unavailable)",
		w.Phase, w.Target, w.Err)
}

// sample is one completed request.
type sample struct {
	endpoint string
	status   int // 0 = transport error
	ms       float64
}

// RunLoad drives the configured load until the request budget or duration
// is exhausted, then aggregates latencies and scrapes counter deltas from
// every target.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("serve: load run has no targets")
	}
	// The scrapes use the caller's context: the run context below expires
	// with the duration, which must not kill the after-run scrape.
	scrapeCtx := ctx
	before, warns := scrapeTargets(scrapeCtx, cfg, "before")
	if cfg.Requests == 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	perClient := make([]int, cfg.Clients)
	if cfg.Requests > 0 {
		for i := 0; i < cfg.Requests; i++ {
			perClient[i%cfg.Clients]++
		}
	}

	results := make([][]sample, cfg.Clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id] = runClient(ctx, cfg, id, perClient[id])
		}(i)
	}
	wg.Wait()

	report := aggregate(results)
	after, afterWarns := scrapeTargets(scrapeCtx, cfg, "after")
	report.ScrapeWarnings = append(warns, afterWarns...)
	report.NodeGridCollections = make(map[string]int64)
	for _, target := range cfg.Targets {
		b, okB := before[target]
		a, okA := after[target]
		if !okB || !okA {
			continue // already warned; counters for this node are unknown
		}
		delta := func(name string) int64 { return a[name] - b[name] }
		report.GridRequests += delta("mcdvfsd_grid_requests_total")
		report.GridCacheHits += delta("mcdvfsd_grid_cache_hits_total")
		report.OptimalRequests += delta("mcdvfsd_optimal_requests_total")
		report.OptimalMemoHits += delta("mcdvfsd_optimal_memo_hits_total")
		collections := delta("mcdvfsd_grid_collections_total")
		report.GridCollections += collections
		report.NodeGridCollections[target] = collections
	}
	if report.GridRequests > 0 {
		report.CoalesceHitRate = float64(report.GridCacheHits) / float64(report.GridRequests)
	} else {
		report.CoalesceHitRate = -1
	}
	return report, nil
}

// scrapeTargets scrapes every target's /metrics, returning per-target
// counters plus one attributed warning per failed scrape — a dead
// endpoint must be reported against its URL, not silently folded into
// zero deltas or an anonymous aggregate.
func scrapeTargets(ctx context.Context, cfg LoadConfig, phase string) (map[string]map[string]int64, []ScrapeWarning) {
	out := make(map[string]map[string]int64, len(cfg.Targets))
	var warns []ScrapeWarning
	for _, target := range cfg.Targets {
		m, err := scrapeMetrics(ctx, cfg.Client, target)
		if err != nil {
			warns = append(warns, ScrapeWarning{Target: target, Phase: phase, Err: err.Error()})
			continue
		}
		out[target] = m
	}
	return out, warns
}

// runClient is one closed loop: pick, send, record, repeat. The request
// sequence draws from rng; 429 backoff jitter draws from a separate
// generator so honoring Retry-After never perturbs which requests a
// (seed, clients, requests) triple replays.
func runClient(ctx context.Context, cfg LoadConfig, id, budget int) []sample {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
	jitter := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed1e55 + int64(id)))
	benches := workload.HeadlineNames()
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(benches)-1))
	pickBench := func() string { return benches[zipf.Uint64()] }

	var samples []sample
	for n := 0; budget == 0 || n < budget; n++ {
		if ctx.Err() != nil {
			break
		}
		endpoint, method, path, body := nextRequest(cfg, rng, pickBench)
		start := time.Now()
		target := cfg.Targets[(id+n)%len(cfg.Targets)]
		status, retryAfter := issue(ctx, cfg, target, method, path, body)
		elapsed := time.Since(start)
		if status == 0 && ctx.Err() != nil {
			break // shutdown race, not a transport failure
		}
		samples = append(samples, sample{
			endpoint: endpoint,
			status:   status,
			ms:       float64(elapsed.Nanoseconds()) / 1e6,
		})
		if status == http.StatusTooManyRequests {
			backoff(ctx, jitter, retryAfter)
		}
	}
	return samples
}

// backoff honors a 429's Retry-After hint: sleep at least half the hinted
// delay with the rest jittered, capped at maxRetryAfter, so a shed cohort
// neither hammers the server immediately nor re-arrives in lockstep. A
// zero hint still backs off briefly.
func backoff(ctx context.Context, jitter *rand.Rand, hint time.Duration) {
	d := hint
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	d = d/2 + time.Duration(jitter.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// nextRequest draws one request from the mix.
func nextRequest(cfg LoadConfig, rng *rand.Rand, pickBench func() string) (endpoint, method, path string, body []byte) {
	marshal := func(v any) []byte {
		b, _ := json.Marshal(v)
		return b
	}
	roll := rng.Intn(cfg.Mix.total())
	switch m := cfg.Mix; {
	case roll < m.Grid:
		return "grid", http.MethodPost, "/v1/grid",
			marshal(GridRequest{Benchmark: pickBench(), Space: cfg.Space})
	case roll < m.Grid+m.Optimal:
		return "optimal", http.MethodPost, "/v1/optimal",
			marshal(OptimalRequest{Benchmark: pickBench(), Space: cfg.Space, Budget: cfg.Budget})
	case roll < m.Grid+m.Optimal+m.Stability:
		return "stability", http.MethodPost, "/v1/stability",
			marshal(StabilityRequest{History: []int{4, 6, 5}, Current: rng.Intn(4)})
	case roll < m.Grid+m.Optimal+m.Stability+m.Emin:
		return "emin", http.MethodPost, "/v1/emin",
			marshal(EminRequest{Predictor: "ewma", Alpha: 0.3, Observations: []float64{1.1, 1.05, 1.2}})
	default:
		return "benchmarks", http.MethodGet, "/v1/benchmarks", nil
	}
}

// issue sends one request to target and returns the status code (0 on
// transport failure) plus any Retry-After hint on a shed response.
// Response bodies are drained so connections are reused.
func issue(ctx context.Context, cfg LoadConfig, target, method, path string, body []byte) (int, time.Duration) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target+path, rd)
	if err != nil {
		return 0, 0
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return 0, 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close() // best effort: the status code was already read
	var retryAfter time.Duration
	if resp.StatusCode == http.StatusTooManyRequests {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, retryAfter
}

// aggregate merges per-client samples into the report.
func aggregate(results [][]sample) *LoadReport {
	r := &LoadReport{Endpoints: make(map[string]EndpointStats)}
	lat := make(map[string][]float64)
	for _, clientSamples := range results {
		for _, s := range clientSamples {
			r.Requests++
			switch {
			case s.status == 0:
				r.TransportErrors++
			case s.status >= 500:
				r.Status5xx++
			case s.status >= 400:
				r.Status4xx++
			default:
				r.Status2xx++
			}
			if s.status == http.StatusTooManyRequests {
				r.Shed++
			}
			es := r.Endpoints[s.endpoint]
			es.Count++
			if s.status == 0 || s.status >= 300 {
				es.Errors++
			}
			r.Endpoints[s.endpoint] = es
			lat[s.endpoint] = append(lat[s.endpoint], s.ms)
		}
	}
	for ep, xs := range lat {
		es := r.Endpoints[ep]
		es.P50 = quantileOrZero(xs, 0.50)
		es.P95 = quantileOrZero(xs, 0.95)
		es.P99 = quantileOrZero(xs, 0.99)
		for _, x := range xs {
			if x > es.Max {
				es.Max = x
			}
		}
		r.Endpoints[ep] = es
	}
	return r
}

func quantileOrZero(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

// scrapeMetrics fetches and parses one daemon's /metrics counters.
func scrapeMetrics(ctx context.Context, client *http.Client, baseURL string) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	//lint:allow errflow read-only response body; scan errors surface through the Scanner below
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: /metrics returned %d", resp.StatusCode)
	}
	return ParseMetrics(resp.Body)
}

// ParseMetrics reads a Prometheus text exposition and returns the
// integer-valued series by name. Comment, blank, and non-integer lines
// are skipped. The cluster metrics aggregator and the load harness share
// this parser, so both read exactly what monitoring would.
func ParseMetrics(r io.Reader) (map[string]int64, error) {
	out := make(map[string]int64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out, sc.Err()
}

// String renders the report as the table mcdvfsload prints.
func (r *LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests           %d  (2xx %d, 4xx %d, 5xx %d, shed %d, transport-err %d)\n",
		r.Requests, r.Status2xx, r.Status4xx, r.Status5xx, r.Shed, r.TransportErrors)
	eps := make([]string, 0, len(r.Endpoints))
	for ep := range r.Endpoints {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	fmt.Fprintf(&b, "%-12s %8s %8s %9s %9s %9s %9s\n", "endpoint", "count", "errors", "p50 ms", "p95 ms", "p99 ms", "max ms")
	for _, ep := range eps {
		es := r.Endpoints[ep]
		fmt.Fprintf(&b, "%-12s %8d %8d %9.2f %9.2f %9.2f %9.2f\n",
			ep, es.Count, es.Errors, es.P50, es.P95, es.P99, es.Max)
	}
	if r.GridRequests > 0 {
		fmt.Fprintf(&b, "grid cache         %d requests: %d collections, %d coalesced/cached hits (hit rate %.1f%%)\n",
			r.GridRequests, r.GridCollections, r.GridCacheHits, 100*r.CoalesceHitRate)
	}
	if r.OptimalRequests > 0 {
		fmt.Fprintf(&b, "optimal memo       %d requests, %d memo hits (%.1f%%)\n",
			r.OptimalRequests, r.OptimalMemoHits, 100*float64(r.OptimalMemoHits)/float64(r.OptimalRequests))
	}
	if len(r.NodeGridCollections) > 1 {
		nodes := make([]string, 0, len(r.NodeGridCollections))
		for n := range r.NodeGridCollections {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		for _, n := range nodes {
			fmt.Fprintf(&b, "node %-30s %d collections\n", n, r.NodeGridCollections[n])
		}
	}
	for _, w := range r.ScrapeWarnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	return b.String()
}
