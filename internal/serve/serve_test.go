package serve

// Handler and lifecycle suite for mcdvfsd, driven entirely in-process
// through httptest. The contention-sensitive cases (64-way coalescing,
// shedding, eviction) are deterministic: shedding fills the admission pool
// by hand instead of racing a collection, and coalescing counts are read
// from the same /metrics counters production monitoring would use.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer builds a server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// rawBody is a request body postJSON sends as it is, unmarshalled.
type rawBody string

// postJSON posts v, marshalled unless it is a rawBody, and returns the
// response with its body.
func postJSON(t *testing.T, ts *httptest.Server, path string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if raw, ok := v.(rawBody); ok {
		body, err = []byte(raw), nil
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// metricValue scrapes one counter from /metrics.
func metricValue(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, data := getBody(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			var v int64
			fmt.Sscanf(fields[1], "%d", &v)
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

func TestBenchmarksEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := getBody(t, ts, "/v1/benchmarks")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Benchmarks []BenchmarkJSON `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) < 6 {
		t.Fatalf("%d benchmarks listed, want the full registry", len(out.Benchmarks))
	}
	headline := 0
	for _, b := range out.Benchmarks {
		if b.Headline {
			headline++
		}
		if b.Samples <= 0 || b.Instructions == 0 {
			t.Errorf("%s: empty shape (%d samples, %d instr)", b.Name, b.Samples, b.Instructions)
		}
	}
	if headline != 6 {
		t.Errorf("%d headline benchmarks, want 6", headline)
	}
}

// TestHealthzAndDrain: /healthz is a liveness check. It answers 200 while
// the listener accepts connections; a drain closes the listener instead
// (TestRunGracefulDrain).
func TestHealthzAndDrain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := getBody(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", resp.StatusCode)
	}
}

func TestGridEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "gobmk"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	// One Write of the whole body, framed by its length: no chunks.
	if ct, te := resp.Header.Get("Content-Type"), resp.TransferEncoding; ct != "application/json" || len(te) != 0 || resp.ContentLength != int64(len(data)) {
		t.Errorf("framing: Content-Type %q, Transfer-Encoding %v, Content-Length %d; want application/json, none, the body's %d", ct, te, resp.ContentLength, len(data))
	}
	var g struct {
		Benchmark string            `json:"benchmark"`
		Settings  []json.RawMessage `json:"settings"`
	}
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	if g.Benchmark != "gobmk" {
		t.Errorf("grid benchmark %q", g.Benchmark)
	}
	if len(g.Settings) != 70 {
		t.Errorf("%d settings, want the 70-setting coarse space", len(g.Settings))
	}

	// The same request again is a pure cache hit.
	collections := metricValue(t, ts, "mcdvfsd_grid_collections_total")
	if resp, data := postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "gobmk"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("second request status %d: %s", resp.StatusCode, data)
	}
	if got := metricValue(t, ts, "mcdvfsd_grid_collections_total"); got != collections {
		t.Errorf("warm request collected again (%d -> %d)", collections, got)
	}
}

func TestGridValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  any
		want int
	}{
		{"unknown benchmark", GridRequest{Benchmark: "no-such"}, http.StatusNotFound},
		{"bad space", GridRequest{Benchmark: "gobmk", Space: "medium"}, http.StatusBadRequest},
		{"empty", GridRequest{}, http.StatusBadRequest},
		{"unknown field", map[string]any{"bench": "gobmk"}, http.StatusBadRequest},
		{"trailing garbage", rawBody(`{"benchmark":"gobmk"} x`), http.StatusBadRequest},
		{"two objects", rawBody(`{"benchmark":"gobmk"}{"benchmark":"lbm"}`), http.StatusBadRequest},
		{"trailing newline", rawBody("{\"benchmark\":\"gobmk\"}\n"), http.StatusOK},
	}
	for _, c := range cases {
		resp, data := postJSON(t, ts, "/v1/grid", c.req)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%d-byte body %.200q)", c.name, resp.StatusCode, c.want, len(data), data)
		}
	}
	if resp, _ := getBody(t, ts, "/v1/grid"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/grid status %d, want 405", resp.StatusCode)
	}
}

func TestGridInlineWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wl := map[string]any{
		"name":   "user-app",
		"repeat": 1,
		"phases": []map[string]any{
			{"name": "p0", "base_cpi": 1.1, "mpki": 2.0, "samples": 3, "mlp": 1.5, "row_hit_rate": 0.6},
			{"name": "p1", "base_cpi": 0.9, "mpki": 22.0, "samples": 2, "mlp": 2.0, "row_hit_rate": 0.6},
		},
	}
	raw, err := json.Marshal(wl)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts, "/v1/grid", GridRequest{Workload: raw})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := metricValue(t, ts, "mcdvfsd_workload_collections_total"); got != 1 {
		t.Errorf("workload collections = %d, want 1", got)
	}
	// Both a benchmark and a workload is ambiguous.
	resp, _ = postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "gobmk", Workload: raw})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ambiguous request status %d, want 400", resp.StatusCode)
	}
}

// TestGridNonFiniteInlineWorkload posts a definition that validation
// accepts but whose base CPI overflows every cell's time to +Inf. JSON
// cannot carry that grid, and the daemon must answer 400 with an error
// body, not 200 with an empty one.
func TestGridNonFiniteInlineWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := json.RawMessage(`{"name":"overflow","repeat":1,"phases":[{"name":"p0","base_cpi":1e301,"mpki":2,"samples":2,"mlp":1.5,"row_hit_rate":0.6}]}`)
	resp, data := postJSON(t, ts, "/v1/grid", GridRequest{Workload: raw})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%d-byte body %q), want 400", resp.StatusCode, len(data), data)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err != nil || !strings.Contains(body.Error, "not finite") {
		t.Errorf("body %q (%v), want an error naming the non-finite cell", data, err)
	}
}

// TestGridCoalescing64 is the tentpole acceptance check: 64 concurrent
// clients asking for the same grid must trigger exactly one collection,
// verified through the same /metrics counters production would watch.
func TestGridCoalescing64(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const clients = 64
	var wg sync.WaitGroup
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "milc"})
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("client %d: status %d", i, code)
		}
	}
	if got := metricValue(t, ts, "mcdvfsd_grid_collections_total"); got != 1 {
		t.Errorf("collections = %d, want exactly 1 for 64 identical requests", got)
	}
	if got := metricValue(t, ts, "mcdvfsd_grid_requests_total"); got != clients {
		t.Errorf("grid requests = %d, want %d", got, clients)
	}
	if got := metricValue(t, ts, "mcdvfsd_grid_cache_hits_total"); got != clients-1 {
		t.Errorf("cache hits = %d, want %d coalesced", got, clients-1)
	}
}

// TestSheddingWhenSaturated fills the admission pool by hand — no timing
// races — and verifies the 429 + Retry-After contract, then that capacity
// freed means service restored. Retry-After is whole seconds rounded up:
// a sub-second hint must not read as "retry now".
func TestSheddingWhenSaturated(t *testing.T) {
	for _, tc := range []struct {
		retryAfter time.Duration
		want       string
	}{
		{7 * time.Second, "7"},
		{300 * time.Millisecond, "1"},
		{1500 * time.Millisecond, "2"},
	} {
		t.Run(tc.retryAfter.String(), func(t *testing.T) {
			s, ts := newTestServer(t, Config{PoolSize: 1, QueueDepth: -1, RetryAfter: tc.retryAfter})
			release, err := s.pool.acquire(context.Background())
			if err != nil {
				t.Fatalf("priming acquire: %v", err)
			}
			resp, data := postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "gobmk"})
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("saturated status %d, want 429 (%s)", resp.StatusCode, data)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.want {
				t.Errorf("Retry-After %q, want %s", got, tc.want)
			}
			if got := metricValue(t, ts, "mcdvfsd_shed_total"); got != 1 {
				t.Errorf("shed = %d, want 1", got)
			}
			release()
			if resp, data := postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "gobmk"}); resp.StatusCode != http.StatusOK {
				t.Fatalf("post-release status %d: %s", resp.StatusCode, data)
			}
		})
	}
}

// TestDisconnectLeavesAdmissionQueue queues a /v1/grid collection behind a
// primed slot, then disconnects its client: the request must leave the
// queue at once and never collect once capacity frees. A handler context
// not rooted in the request's would wait in the queue for the slot and then
// collect for nobody.
func TestDisconnectLeavesAdmissionQueue(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1, QueueDepth: 1})
	release, err := s.pool.acquire(context.Background())
	if err != nil {
		t.Fatalf("priming acquire: %v", err)
	}
	// Cleanups run last-in first-out, so the slot is freed before the
	// server closes even when an assertion below fails.
	releaseOnce := sync.OnceFunc(release)
	t.Cleanup(releaseOnce)

	waitQueued := func(want int64) {
		t.Helper()
		deadline := time.After(2 * time.Second)
		for metricValue(t, ts, "mcdvfsd_collections_queued") != want {
			select {
			case <-deadline:
				t.Fatalf("mcdvfsd_collections_queued never reached %d", want)
			case <-time.After(5 * time.Millisecond):
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/grid",
		strings.NewReader(`{"benchmark":"gobmk"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	waitQueued(1)
	cancel()
	if err := <-done; err == nil {
		t.Error("client request succeeded after its context was cancelled")
	}
	waitQueued(0)

	releaseOnce()
	if got := s.pool.running(); got != 0 {
		t.Errorf("%d collections hold a slot after release, want 0", got)
	}
	if got := metricValue(t, ts, "mcdvfsd_grid_collections_total"); got != 0 {
		t.Errorf("collections = %d, want 0: the disconnected request collected", got)
	}
}

func TestOptimalEndpointAndMemo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := OptimalRequest{Benchmark: "gobmk", Budget: 1.3}
	resp, data := postJSON(t, ts, "/v1/optimal", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out OptimalResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.NumSamples == 0 || len(out.Schedule) != out.NumSamples {
		t.Errorf("schedule length %d vs %d samples", len(out.Schedule), out.NumSamples)
	}
	if len(out.Settings) == 0 {
		t.Error("no settings resolved")
	}
	used := make(map[int]bool)
	for _, st := range out.Settings {
		used[st.ID] = true
	}
	for i, id := range out.Schedule {
		if !used[id] {
			t.Fatalf("schedule[%d] = %d not in the settings table", i, id)
		}
	}

	// Identical request: memoized, no second schedule search or grid work.
	resp, data2 := postJSON(t, ts, "/v1/optimal", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second status %d", resp.StatusCode)
	}
	if !bytes.Equal(data, data2) {
		t.Error("memoized response differs from the computed one")
	}
	if got := metricValue(t, ts, "mcdvfsd_optimal_memo_hits_total"); got != 1 {
		t.Errorf("memo hits = %d, want 1", got)
	}

	// A different budget is a different decision.
	resp, data3 := postJSON(t, ts, "/v1/optimal", OptimalRequest{Benchmark: "gobmk", Budget: 2.0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budget 2.0 status %d", resp.StatusCode)
	}
	if bytes.Equal(data, data3) {
		t.Error("budget 1.3 and 2.0 returned identical schedules — memo key ignores budget?")
	}
}

func TestOptimalValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  any
		want int
	}{
		{"unknown benchmark", OptimalRequest{Benchmark: "no-such", Budget: 1.3}, http.StatusNotFound},
		{"budget below 1", OptimalRequest{Benchmark: "gobmk", Budget: 0.5}, http.StatusBadRequest},
		{"zero budget", OptimalRequest{Benchmark: "gobmk"}, http.StatusBadRequest},
		{"bad space", OptimalRequest{Benchmark: "gobmk", Space: "ultra", Budget: 1.3}, http.StatusBadRequest},
		{"trailing garbage", rawBody(`{"benchmark":"gobmk","budget":1.3} x`), http.StatusBadRequest},
		{"two objects", rawBody(`{"benchmark":"gobmk","budget":1.3}{"benchmark":"lbm","budget":1.3}`), http.StatusBadRequest},
		{"trailing newline", rawBody("{\"benchmark\":\"gobmk\",\"budget\":1.3}\n"), http.StatusOK},
	}
	for _, c := range cases {
		resp, data := postJSON(t, ts, "/v1/optimal", c.req)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%d-byte body %.200q)", c.name, resp.StatusCode, c.want, len(data), data)
		}
	}
}

// TestStabilityEndpoint: /v1/stability costs the same however many
// samples a region spans, and refuses a non-positive length, or a length
// or current past 2^32 samples. The handler runs on its own goroutine
// under a deadline, since an httptest.Server's Close would wait for a
// handler that spins once per sample.
func TestStabilityEndpoint(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		req       StabilityRequest
		code      int
		remaining int
	}{
		// Mean completed length 5, 2 spent: 3 remaining.
		{"short history", StabilityRequest{History: []int{4, 6, 5}, Current: 2}, http.StatusOK, 3},
		{"2^31 history, 2^30 current", StabilityRequest{History: []int{1 << 31}, Current: 1 << 30}, http.StatusOK, 1 << 30},
		{"negative length", StabilityRequest{History: []int{-1}}, http.StatusBadRequest, 0},
		{"2^40 current", StabilityRequest{History: []int{4}, Current: 1 << 40}, http.StatusBadRequest, 0},
		{"two 2^62 lengths", StabilityRequest{History: []int{1 << 62, 1 << 62}}, http.StatusBadRequest, 0},
	}
	for _, tc := range cases {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/stability", bytes.NewReader(body))
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Handler().ServeHTTP(rec, req)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: no answer within 2s", tc.name)
		}
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.code, rec.Body)
			continue
		}
		if tc.code != http.StatusOK {
			continue
		}
		var out StabilityResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out.PredictedRemaining != tc.remaining {
			t.Errorf("%s: predicted_remaining %d, want %d", tc.name, out.PredictedRemaining, tc.remaining)
		}
	}
}

func TestEminEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts, "/v1/emin", EminRequest{
		Predictor: "ewma", Alpha: 0.5, Observations: []float64{2, 4},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out EminResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Known || out.PredictedEminJ < 2.9 || out.PredictedEminJ > 3.1 {
		t.Errorf("ewma(0.5) over [2 4] = %v known=%v, want 3", out.PredictedEminJ, out.Known)
	}

	resp, data = postJSON(t, ts, "/v1/emin", EminRequest{
		Predictor: "phase-table",
		Samples:   []EminSample{{CPI: 1.0, MPKI: 2, EminJ: 7}, {CPI: 3.0, MPKI: 30, EminJ: 11}},
		Query:     &PhaseSigJSON{CPI: 1.1, MPKI: 2.5},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("phase-table status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Known || out.PredictedEminJ < 6.9 || out.PredictedEminJ > 7.1 {
		t.Errorf("phase-table query = %v known=%v, want 7 (same bin as first sample)", out.PredictedEminJ, out.Known)
	}

	if resp, _ := postJSON(t, ts, "/v1/emin", EminRequest{Predictor: "oracle"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown predictor accepted: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts, "/v1/emin", EminRequest{Predictor: "phase-table"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("phase-table without query accepted: %d", resp.StatusCode)
	}
}

// TestBenchmarkEviction bounds the LRU at one benchmark: requesting a
// second must forget the first (Lab.Forget via the eviction callback), so
// re-requesting the first recollects.
func TestBenchmarkEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBenchmarks: 1})
	for _, bench := range []string{"gobmk", "milc", "gobmk"} {
		if resp, data := postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: bench}); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", bench, resp.StatusCode, data)
		}
	}
	if got := metricValue(t, ts, "mcdvfsd_grid_collections_total"); got != 3 {
		t.Errorf("collections = %d, want 3 (gobmk evicted and recollected)", got)
	}
	if got := metricValue(t, ts, "mcdvfsd_bench_evictions_total"); got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
	if got := metricValue(t, ts, "mcdvfsd_cached_benchmarks"); got != 1 {
		t.Errorf("cached benchmarks gauge = %d, want 1", got)
	}
}

// TestGridBodyMetrics follows the Lab's kept grid bodies through
// /metrics: a benchmark's third grid request is answered from its kept
// body, byte for byte the first's, and mcdvfsd_grid_body_bytes returns to
// 0 when the LRU evicts the grid and when Forget drops it. Inline
// workloads are never kept.
func TestGridBodyMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBenchmarks: 1})
	grid := func(bench string) []byte {
		t.Helper()
		resp, data := postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: bench})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%d-byte body %.200q)", bench, resp.StatusCode, len(data), data)
		}
		return data
	}
	expect := func(when string, bodyBytes, hits int64) {
		t.Helper()
		if got := metricValue(t, ts, "mcdvfsd_grid_body_bytes"); got != bodyBytes {
			t.Errorf("%s: mcdvfsd_grid_body_bytes = %d, want %d", when, got, bodyBytes)
		}
		if got := metricValue(t, ts, "mcdvfsd_grid_body_hits_total"); got != hits {
			t.Errorf("%s: mcdvfsd_grid_body_hits_total = %d, want %d", when, got, hits)
		}
	}

	first := grid("gobmk")
	expect("gobmk read once", 0, 0)
	if second := grid("gobmk"); !bytes.Equal(second, first) {
		t.Fatal("second gobmk body differs from the first")
	}
	expect("gobmk read twice", int64(len(first)), 0)
	if third := grid("gobmk"); !bytes.Equal(third, first) {
		t.Fatal("kept gobmk body differs from the encoded one")
	}
	expect("gobmk read three times", int64(len(first)), 1)

	milc := grid("milc") // evicts gobmk's grid, and its body with it
	expect("gobmk evicted", 0, 1)
	grid("milc")
	expect("milc read twice", int64(len(milc)), 1)
	s.lab.Forget("milc")
	expect("milc forgotten", 0, 1)

	raw := json.RawMessage(`{"name":"user-app","repeat":1,"phases":[{"name":"p0","base_cpi":1.1,"mpki":2,"samples":3,"mlp":1.5,"row_hit_rate":0.6}]}`)
	for i := 0; i < 3; i++ {
		if resp, data := postJSON(t, ts, "/v1/grid", GridRequest{Workload: raw}); resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(data)) {
			t.Fatalf("inline workload: status %d, Content-Length %d for %d bytes", resp.StatusCode, resp.ContentLength, len(data))
		}
	}
	expect("inline workload posted three times", 0, 1)
}

// answers reports whether a GET of / on addr answers 200.
func answers(addr string) bool {
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// startListenAndDrain runs ListenAndDrain(ctx, addr, h, drain) in a
// goroutine and waits until addr answers; the call's result arrives on the
// returned channel.
func startListenAndDrain(ctx context.Context, t *testing.T, addr string, h http.Handler, drain time.Duration) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- ListenAndDrain(ctx, addr, h, drain) }()
	for deadline := time.Now().Add(5 * time.Second); !answers(addr); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("listener never came up")
		}
	}
	return done
}

// TestRunGracefulDrain exercises the full lifecycle on a real listener:
// overlap a request, cancel, and verify that new connections are refused
// while the request already in its handler completes with 200, and that
// the drain returns nil only after it.
func TestRunGracefulDrain(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	entered, finish := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			<-finish
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := startListenAndDrain(ctx, t, addr, h, 5*time.Second)
	slow := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			t.Errorf("request in its handler at cancel: %v", err)
			slow <- 0
			return
		}
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	<-entered

	cancel()
	refused := func() bool {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return true
		}
		c.Close()
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !refused(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			close(finish)
			t.Fatal("listener still accepting 5s after cancel")
		}
	}
	select {
	case err := <-done:
		t.Fatalf("ListenAndDrain returned %v with a request still in its handler", err)
	default:
	}
	close(finish)
	if code := <-slow; code != http.StatusOK {
		t.Errorf("request in its handler at cancel answered %d, want 200", code)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ListenAndDrain returned %v, want clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndDrain did not drain within 5s")
	}
}

// TestListenAndDrainHint checks that the drain has no hint period. A
// failed listen is reported, not served, and a cancel on an idle listener
// closes it and returns nil at once, well inside a drain period of a
// minute.
func TestListenAndDrainHint(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	taken, stop := context.WithTimeout(context.Background(), 5*time.Second)
	err = ListenAndDrain(taken, addr, ok, time.Second)
	stop()
	if err == nil || !strings.HasPrefix(err.Error(), "serve: ") {
		t.Errorf("listen on a taken address returned %v, want a serve: error", err)
	}
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := startListenAndDrain(ctx, t, addr, ok, time.Minute)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ListenAndDrain returned %v, want clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndDrain still running 5s after cancel on an idle listener")
	}
	if answers(addr) {
		t.Error("listener still answering after the drain")
	}
}
