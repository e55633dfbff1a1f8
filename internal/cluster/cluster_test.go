package cluster

// In-process cluster suite over the TestHarness. The contention-sensitive
// cases are deterministic the same way the serve suite's are: admission
// pools are filled by hand (Server.AcquireCollectSlot), a queued flight is
// observed through the owner's mcdvfsd_collections_queued gauge rather
// than sleeps, faulty peers are handlers swapped in through the harness's
// swapHandler, and outcomes are asserted through the same /metrics
// counters production monitoring reads.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcdvfs/internal/serve"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

// post sends one JSON request to url+path with optional extra headers.
func post(t *testing.T, url, path string, v any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, val := range hdr {
		req.Header.Set(k, val)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s%s: %v", url, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatalf("GET %s%s: %v", url, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// metric scrapes one counter from a node's /metrics.
func metric(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, data := get(t, url, "/metrics")
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
	return 0
}

// sumMetric sums one counter across every harness node.
func sumMetric(t *testing.T, h *TestHarness, name string) int64 {
	t.Helper()
	var total int64
	for i := 0; i < h.Len(); i++ {
		total += metric(t, h.URL(i), name)
	}
	return total
}

// benchesOwnedBy returns registry benchmarks whose coarse key the given
// harness node owns.
func benchesOwnedBy(h *TestHarness, idx int) []string {
	var out []string
	for _, b := range workload.Names() {
		if h.NodeFor(b, "coarse") == idx {
			out = append(out, b)
		}
	}
	return out
}

// waitFor polls cond until true or the deadline, without asserting — the
// caller decides what a timeout means.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// TestClusterRouting checks the routing plumbing end to end: every node
// answers /v1/cluster/ring with the same membership, a request for an
// owned key is served in place, and a request landing on a non-owner
// comes back stamped with the owner's ID.
func TestClusterRouting(t *testing.T) {
	h, err := NewTestHarness(HarnessConfig{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	for i := 0; i < 3; i++ {
		resp, data := get(t, h.URL(i), "/v1/cluster/ring")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d ring status %d", i, resp.StatusCode)
		}
		var ring RingResponse
		if err := json.Unmarshal(data, &ring); err != nil {
			t.Fatal(err)
		}
		if len(ring.Nodes) != 3 || ring.Self != nodeID(i) {
			t.Errorf("node %d ring = %+v", i, ring)
		}
	}

	const bench = "milc"
	ownerIdx := h.NodeFor(bench, "coarse")
	if ownerIdx < 0 {
		t.Fatal("no owner found")
	}
	proxyIdx := (ownerIdx + 1) % 3
	resp, data := post(t, h.URL(proxyIdx), "/v1/grid", serve.GridRequest{Benchmark: bench}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied grid status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(HeaderNode); got != nodeID(ownerIdx) {
		t.Errorf("served by %q, want owner %q", got, nodeID(ownerIdx))
	}
	// The relay frames the owner's body as the owner did: by its length.
	if te := resp.TransferEncoding; len(te) != 0 || resp.ContentLength != int64(len(data)) {
		t.Errorf("relayed grid framing: Transfer-Encoding %v, Content-Length %d; want none and the body's %d", te, resp.ContentLength, len(data))
	}
	if _, err := trace.ReadJSON(bytes.NewReader(data)); err != nil {
		t.Errorf("proxied grid body invalid: %v", err)
	}
	if got := metric(t, h.URL(proxyIdx), "mcdvfsd_cluster_proxied_total"); got != 1 {
		t.Errorf("proxied_total = %d, want 1", got)
	}
	if got := metric(t, h.URL(ownerIdx), "mcdvfsd_cluster_forwarded_served_total"); got != 1 {
		t.Errorf("forwarded_served_total = %d, want 1", got)
	}

	// A second request from the same proxy must not proxy again for a
	// locally owned key: send one the proxy owns.
	ownBench := benchesOwnedBy(h, proxyIdx)
	if len(ownBench) == 0 {
		t.Fatal("proxy node owns no benchmark")
	}
	resp, data = post(t, h.URL(proxyIdx), "/v1/grid", serve.GridRequest{Benchmark: ownBench[0]}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("local grid status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(HeaderNode); got != nodeID(proxyIdx) {
		t.Errorf("owned key served by %q, want local %q", got, nodeID(proxyIdx))
	}
}

// TestClusterCoalescing64 is the tentpole acceptance case: 64 concurrent
// clients spread across 3 nodes all demanding the same grid must cost the
// cluster exactly one collection — routing concentrates every caller on
// the owner, whose singleflight coalesces them.
func TestClusterCoalescing64(t *testing.T) {
	h, err := NewTestHarness(HarnessConfig{
		Nodes: 3,
		// This case pins coalescing, not timeout recovery: under the race
		// detector, streaming 64 copies of the grid out of one process can
		// outlast the default proxy timeout, and a timed-out forward would
		// legitimately fall back — so give forwards all the time they need.
		Mutate: func(i int, cfg *Config) { cfg.ProxyTimeout = 2 * time.Minute },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	const bench = "milc"
	const clients = 64
	var wg sync.WaitGroup
	codes := make([]int, clients)
	servedBy := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := post(t, h.URL(i%3), "/v1/grid", serve.GridRequest{Benchmark: bench}, nil)
			codes[i] = resp.StatusCode
			servedBy[i] = resp.Header.Get(HeaderNode)
		}(i)
	}
	wg.Wait()

	owner := nodeID(h.NodeFor(bench, "coarse"))
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if servedBy[i] != owner {
			t.Errorf("client %d served by %q, want owner %q", i, servedBy[i], owner)
		}
	}
	if got := sumMetric(t, h, "mcdvfsd_grid_collections_total"); got != 1 {
		t.Errorf("cluster-wide collections = %d, want exactly 1 for %d identical requests", got, clients)
	}
	if got := sumMetric(t, h, "mcdvfsd_grid_requests_total"); got != clients {
		t.Errorf("cluster-wide grid requests = %d, want %d", got, clients)
	}
}

// TestClusterMetricsAggregation checks GET /v1/cluster/metrics: every
// node appears, totals are the column sums of the per-node breakdown, and
// a dark node degrades to a partial aggregation with the failure named.
func TestClusterMetricsAggregation(t *testing.T) {
	h, err := NewTestHarness(HarnessConfig{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Generate a little cross-node traffic first.
	for _, bench := range []string{"milc", "gcc", "astar"} {
		resp, data := post(t, h.URL(0), "/v1/grid", serve.GridRequest{Benchmark: bench}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("grid %s status %d: %s", bench, resp.StatusCode, data)
		}
	}

	resp, data := get(t, h.URL(1), "/v1/cluster/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster metrics status %d", resp.StatusCode)
	}
	var agg ClusterMetricsResponse
	if err := json.Unmarshal(data, &agg); err != nil {
		t.Fatal(err)
	}
	if len(agg.Nodes) != 3 || len(agg.Errors) != 0 {
		t.Fatalf("aggregation nodes=%d errors=%v, want 3 nodes and no errors", len(agg.Nodes), agg.Errors)
	}
	for _, name := range []string{"mcdvfsd_grid_collections_total", "mcdvfsd_cluster_proxied_total"} {
		var sum int64
		for _, m := range agg.Nodes {
			sum += m[name]
		}
		if agg.Total[name] != sum {
			t.Errorf("Total[%s] = %d, want per-node sum %d", name, agg.Total[name], sum)
		}
	}
	if agg.Total["mcdvfsd_grid_collections_total"] != 3 {
		t.Errorf("collections total = %d, want 3 (one per benchmark)", agg.Total["mcdvfsd_grid_collections_total"])
	}

	// Kill one node; the aggregation must degrade, not fail.
	h.servers[2].Close()
	resp, data = get(t, h.URL(0), "/v1/cluster/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial cluster metrics status %d", resp.StatusCode)
	}
	agg = ClusterMetricsResponse{}
	if err := json.Unmarshal(data, &agg); err != nil {
		t.Fatal(err)
	}
	if len(agg.Nodes) != 2 {
		t.Errorf("partial aggregation has %d nodes, want 2", len(agg.Nodes))
	}
	if _, ok := agg.Errors[nodeID(2)]; !ok {
		t.Errorf("dark node missing from Errors: %v", agg.Errors)
	}
}

// TestNodeBoundIsMaxBenchmarks: a node's Lab holds at most
// Serve.MaxBenchmarks grids, however many keys pass through it, and its
// cached-benchmarks gauge agrees.
func TestNodeBoundIsMaxBenchmarks(t *testing.T) {
	h, err := NewTestHarness(HarnessConfig{
		Nodes: 3,
		Serve: serve.Config{MaxBenchmarks: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	for _, bench := range workload.Names() {
		for i := 0; i < h.Len(); i++ {
			resp, data := post(t, h.URL(i), "/v1/grid", serve.GridRequest{Benchmark: bench}, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s via node %d: status %d: %s", bench, i, resp.StatusCode, data)
			}
		}
	}
	for i := 0; i < h.Len(); i++ {
		resident := h.Node(i).srv.Lab().ResidentGrids()
		gauge := metric(t, h.URL(i), "mcdvfsd_cached_benchmarks")
		if resident != 1 || gauge != 1 {
			t.Errorf("node %d: %d grids resident, gauge %d; want 1 and 1", i, resident, gauge)
		}
	}
}

// TestDrainRefusalAndFailover is the graceful-drain acceptance case: a
// stopping owner closes its listener, so a new write for a key it owns
// fails at the transport and the node that received it answers from its
// own Lab, while the proxied collection already in the owner's queue
// still completes from the owner before its Shutdown returns.
func TestDrainRefusalAndFailover(t *testing.T) {
	h, err := NewTestHarness(HarnessConfig{
		Nodes: 3,
		Serve: serve.Config{PoolSize: 1, QueueDepth: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Two benchmarks owned by the same node: one in flight when the drain
	// begins, one arriving after.
	var ownerIdx int
	var owned []string
	for i := 0; i < 3; i++ {
		if owned = benchesOwnedBy(h, i); len(owned) >= 2 {
			ownerIdx = i
			break
		}
	}
	if len(owned) < 2 {
		t.Fatal("no node owns two benchmarks")
	}
	ownerNode := h.Node(ownerIdx)
	proxyIdx := (ownerIdx + 1) % 3
	inflightBench, lateBench := owned[0], owned[1]

	release, err := ownerNode.srv.AcquireCollectSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inflightDone := make(chan *http.Response, 1)
	go func() {
		resp, _ := post(t, h.URL(proxyIdx), "/v1/grid", serve.GridRequest{Benchmark: inflightBench}, nil)
		inflightDone <- resp
	}()
	if !waitFor(t, 5*time.Second, func() bool {
		return metric(t, h.URL(ownerIdx), "mcdvfsd_collections_queued") == 1
	}) {
		release()
		t.Fatal("proxied flight never queued on the owner")
	}

	shutdown := make(chan error, 1)
	go func() { shutdown <- h.servers[ownerIdx].Config.Shutdown(context.Background()) }()
	ownerAddr := h.servers[ownerIdx].Listener.Addr().String()
	if !waitFor(t, 5*time.Second, func() bool {
		c, err := net.Dial("tcp", ownerAddr)
		if err != nil {
			return true
		}
		c.Close()
		return false
	}) {
		release()
		t.Fatal("owner's listener still accepting 5s after Shutdown began")
	}

	// A write arriving now fails at the transport, and the receiver
	// answers it from its own Lab.
	resp, data := post(t, h.URL(proxyIdx), "/v1/grid", serve.GridRequest{Benchmark: lateBench}, nil)
	if resp.StatusCode != http.StatusOK {
		release()
		t.Fatalf("late write status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(HeaderNode); got != nodeID(proxyIdx) {
		t.Errorf("late write served by %q, want the receiver %q", got, nodeID(proxyIdx))
	}
	for _, name := range []string{"mcdvfsd_cluster_proxy_errors_total", "mcdvfsd_cluster_local_fallbacks_total"} {
		if got := metric(t, h.URL(proxyIdx), name); got != 1 {
			t.Errorf("receiver %s = %d, want 1", name, got)
		}
	}

	// The collection already in flight on the stopping owner still
	// completes for its proxied caller, and only then does Shutdown return.
	release()
	select {
	case resp := <-inflightDone:
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-flight proxied collection status %d after drain, want 200", resp.StatusCode)
		}
		if got := resp.Header.Get(HeaderNode); got != nodeID(ownerIdx) {
			t.Errorf("in-flight collection served by %q, want stopping owner %q", got, nodeID(ownerIdx))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight proxied collection never completed")
	}
	select {
	case err := <-shutdown:
		if err != nil {
			t.Errorf("owner's Shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("owner's Shutdown never returned")
	}
}

// TestClusterLoadMultiTarget drives the mcdvfsload path end to end
// against the harness: clients rotating over every node, cluster-wide
// counter deltas, per-node breakdown.
func TestClusterLoadMultiTarget(t *testing.T) {
	h, err := NewTestHarness(HarnessConfig{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	report, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		Targets:  h.URLs(),
		Clients:  8,
		Requests: 64,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests != 64 {
		t.Errorf("requests = %d, want 64", report.Requests)
	}
	if report.Status5xx != 0 || report.TransportErrors != 0 {
		t.Errorf("5xx=%d transport=%d, want clean run\n%s", report.Status5xx, report.TransportErrors, report)
	}
	if len(report.ScrapeWarnings) != 0 {
		t.Errorf("scrape warnings: %v", report.ScrapeWarnings)
	}
	var nodeSum int64
	for _, v := range report.NodeGridCollections {
		nodeSum += v
	}
	if nodeSum != report.GridCollections {
		t.Errorf("per-node collections sum %d != cluster total %d", nodeSum, report.GridCollections)
	}
	if report.GridRequests > 0 && report.GridCacheHits+report.GridCollections != report.GridRequests {
		t.Errorf("grid accounting: %d hits + %d collections != %d requests",
			report.GridCacheHits, report.GridCollections, report.GridRequests)
	}
}

// swap puts handler in front of node i's listener in place of the node,
// through the harness's swapHandler.
func swap(h *TestHarness, i int, handler http.HandlerFunc) {
	var hh http.Handler = handler
	h.servers[i].Config.Handler.(*swapHandler).h.Store(&hh)
}

// wedge replaces node i's handler with one that accepts every request and
// answers none until the request ends or release is called: a peer that
// is up but stuck. Call release before h.Close, which waits for open
// requests.
func wedge(h *TestHarness, i int) (release func()) {
	stuck := make(chan struct{})
	swap(h, i, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-stuck:
		}
	})
	return func() { close(stuck) }
}

// delay replaces node i's handler with one that answers through the node
// after d: a peer that is slow but alive. A late answer goes to a
// connection its caller has already closed.
func delay(h *TestHarness, i int, d time.Duration) {
	node := h.Node(i).Handler()
	swap(h, i, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(d)
		node.ServeHTTP(w, r)
	})
}

// truncate replaces node i's handler with one that answers 200 with a
// body stopping short of its Content-Length, then closes the connection.
func truncate(h *TestHarness, i int) {
	swap(h, i, func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := http.NewResponseController(w).Hijack()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer conn.Close()
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"benchmark\":")
		buf.Flush()
	})
}

// flap replaces node i's handler with one that alternates between
// answering through the node and dropping the connection after reading
// the request: an owner that comes and goes. It answers first.
func flap(h *TestHarness, i int) {
	node := h.Node(i).Handler()
	var calls atomic.Int64
	swap(h, i, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 1 {
			node.ServeHTTP(w, r)
			return
		}
		_, _ = io.Copy(io.Discard, r.Body) // the request is read, then dropped
		conn, _, err := http.NewResponseController(w).Hijack()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		conn.Close()
	})
}

// doWithin sends one request under a client deadline and reads the whole
// response, returning how long it took.
func doWithin(t *testing.T, d time.Duration, method, url string, v any) (*http.Response, []byte, time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	var body io.Reader
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v after %v", method, url, err, time.Since(start))
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s %s: reading body: %v after %v", method, url, err, time.Since(start))
	}
	return resp, data, time.Since(start)
}

// TestOwnerFailureFallsBackLocally is the peer fault tier. Each row
// injects one owner fault and states its outcome: either the owner's
// answer is relayed, or the node that received the request answers from
// its own Lab, behind its own admission gate, for /v1/grid and
// /v1/optimal alike with one local collection between them. Either way
// each request finishes within the row's bound and moves the receiver's
// proxy-error and local-fallback counters by the row's counts. A receiver
// that answers locally and is saturated too sheds with its own hint.
func TestOwnerFailureFallsBackLocally(t *testing.T) {
	const (
		bench        = "milc"
		proxyTimeout = 2 * time.Second
	)
	requests := []struct {
		path string
		body any
	}{
		{"/v1/grid", serve.GridRequest{Benchmark: bench}},
		{"/v1/optimal", serve.OptimalRequest{Benchmark: bench, Budget: 1.3}},
	}
	cases := []struct {
		name string
		fail func(t *testing.T, h *TestHarness, owner int) (restore func())
		// relayed: the owner answers through the receiver; otherwise the
		// receiver answers from its own Lab.
		relayed bool
		// within bounds each request's round trip.
		within time.Duration
		// proxyErrors and fallbacks are the receiver's counter steps per
		// request.
		proxyErrors, fallbacks int64
	}{
		{"shedding", func(t *testing.T, h *TestHarness, owner int) func() {
			release, err := h.Node(owner).srv.AcquireCollectSlot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return release
		}, false, 10 * time.Second, 0, 1},
		{"unreachable", func(t *testing.T, h *TestHarness, owner int) func() {
			h.servers[owner].Close()
			return func() {}
		}, false, 10 * time.Second, 1, 1},
		// One ProxyTimeout, then a local answer.
		{"wedged", func(t *testing.T, h *TestHarness, owner int) func() {
			return wedge(h, owner)
		}, false, 3 * time.Second, 1, 1},
		// The owner holds both answers already, so only the delay stands
		// between the forward and its relay.
		{"half-timeout", func(t *testing.T, h *TestHarness, owner int) func() {
			for _, req := range requests {
				if resp, data := post(t, h.URL(owner), req.path, req.body, nil); resp.StatusCode != http.StatusOK {
					t.Fatalf("warming the owner: %s status %d: %s", req.path, resp.StatusCode, data)
				}
			}
			delay(h, owner, proxyTimeout/2)
			return func() {}
		}, true, proxyTimeout, 0, 0},
		{"late", func(t *testing.T, h *TestHarness, owner int) func() {
			delay(h, owner, proxyTimeout+time.Second)
			return func() {}
		}, false, proxyTimeout * 3 / 2, 1, 1},
		// Relaying while reading would have sent the client a truncated
		// 200; the whole-body read fails instead, and the receiver answers.
		{"truncating", func(t *testing.T, h *TestHarness, owner int) func() {
			truncate(h, owner)
			return func() {}
		}, false, proxyTimeout, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := NewTestHarness(HarnessConfig{
				Nodes:  3,
				Serve:  serve.Config{PoolSize: 1, QueueDepth: -1, RetryAfter: 7 * time.Second},
				Mutate: func(i int, cfg *Config) { cfg.ProxyTimeout = proxyTimeout },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			ownerIdx := h.NodeFor(bench, "coarse")
			recvIdx := (ownerIdx + 1) % h.Len()
			var cold string
			for _, b := range benchesOwnedBy(h, ownerIdx) {
				if b != bench {
					cold = b
					break
				}
			}
			if cold == "" {
				t.Fatalf("%s owns no benchmark besides %s", nodeID(ownerIdx), bench)
			}
			restore := tc.fail(t, h, ownerIdx)
			defer restore()
			servedBy, collections := nodeID(recvIdx), int64(1)
			if tc.relayed {
				servedBy, collections = nodeID(ownerIdx), 0
			}

			for _, req := range requests {
				resp, data, took := doWithin(t, 20*time.Second, http.MethodPost, h.URL(recvIdx)+req.path, req.body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d after %v: %s", req.path, resp.StatusCode, took, data)
				}
				if took > tc.within {
					t.Errorf("%s: answer took %v, want within %v", req.path, took, tc.within)
				}
				if got := resp.Header.Get(HeaderNode); got != servedBy {
					t.Errorf("%s: served by %q, want %q", req.path, got, servedBy)
				}
				for name := range resp.Header {
					if strings.HasPrefix(name, "X-Mcdvfs-") && name != http.CanonicalHeaderKey(HeaderNode) {
						t.Errorf("%s: %s header on a fresh answer", req.path, name)
					}
				}
			}
			for name, want := range map[string]int64{
				"mcdvfsd_grid_collections_total":        collections,
				"mcdvfsd_cluster_proxy_errors_total":    2 * tc.proxyErrors,
				"mcdvfsd_cluster_local_fallbacks_total": 2 * tc.fallbacks,
			} {
				if got := metric(t, h.URL(recvIdx), name); got != want {
					t.Errorf("receiver %s = %d, want %d", name, got, want)
				}
			}
			if tc.relayed {
				return
			}

			release, err := h.Node(recvIdx).srv.AcquireCollectSlot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			resp, data, took := doWithin(t, 20*time.Second, http.MethodPost, h.URL(recvIdx)+"/v1/grid", serve.GridRequest{Benchmark: cold})
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("cold key with both pools held: status %d after %v (%s), want 429", resp.StatusCode, took, data)
			}
			if got := resp.Header.Get(HeaderNode); got != nodeID(recvIdx) {
				t.Errorf("cold shed from %q, want the receiver %q", got, nodeID(recvIdx))
			}
			if got := resp.Header.Get("Retry-After"); got != "7" {
				t.Errorf("Retry-After %q, want 7", got)
			}
		})
	}
}

// TestFlappingOwner completes the peer fault tier with an owner that
// alternates between answering and dropping the connection after reading
// the request. Every request answers 200 with the same body: the answered
// ones are relayed stamped with the owner, the dropped ones answered by the
// receiver, whose proxy-error and local-fallback counters rise once per
// dropped forward, and each side collects the grid once.
func TestFlappingOwner(t *testing.T) {
	const (
		bench    = "milc"
		requests = 6
	)
	h, err := NewTestHarness(HarnessConfig{
		Nodes:  3,
		Mutate: func(i int, cfg *Config) { cfg.ProxyTimeout = 2 * time.Second },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ownerIdx := h.NodeFor(bench, "coarse")
	recvIdx := (ownerIdx + 1) % h.Len()
	flap(h, ownerIdx)

	var first []byte
	for i := 0; i < requests; i++ {
		resp, data := post(t, h.URL(recvIdx), "/v1/grid", serve.GridRequest{Benchmark: bench}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
		}
		servedBy := nodeID(ownerIdx)
		if i%2 == 1 {
			servedBy = nodeID(recvIdx)
		}
		if got := resp.Header.Get(HeaderNode); got != servedBy {
			t.Errorf("request %d: served by %q, want %q", i, got, servedBy)
		}
		if i == 0 {
			first = data
		} else if !bytes.Equal(data, first) {
			t.Errorf("request %d: body differs from the first answer's", i)
		}
	}
	for name, want := range map[string]int64{
		"mcdvfsd_cluster_proxied_total":         requests,
		"mcdvfsd_cluster_proxy_errors_total":    requests / 2,
		"mcdvfsd_cluster_local_fallbacks_total": requests / 2,
		"mcdvfsd_grid_collections_total":        1,
	} {
		if got := metric(t, h.URL(recvIdx), name); got != want {
			t.Errorf("receiver %s = %d, want %d", name, got, want)
		}
	}
	swap(h, ownerIdx, h.Node(ownerIdx).Handler().ServeHTTP) // so its /metrics answers
	if got := metric(t, h.URL(ownerIdx), "mcdvfsd_grid_collections_total"); got != 1 {
		t.Errorf("owner mcdvfsd_grid_collections_total = %d, want 1", got)
	}
}

// TestClusterMetricsWedgedPeer: a peer that accepts the scrape but never
// answers costs /v1/cluster/metrics one ProxyTimeout, after which the
// partial aggregate names it in errors.
func TestClusterMetricsWedgedPeer(t *testing.T) {
	const proxyTimeout = 2 * time.Second
	h, err := NewTestHarness(HarnessConfig{
		Nodes:  3,
		Mutate: func(i int, cfg *Config) { cfg.ProxyTimeout = proxyTimeout },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	release := wedge(h, 2)
	defer release()
	resp, data, took := doWithin(t, 20*time.Second, http.MethodGet, h.URL(0)+"/v1/cluster/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster metrics status %d after %v: %s", resp.StatusCode, took, data)
	}
	if took > 2*proxyTimeout {
		t.Errorf("partial aggregate took %v, want within %v", took, 2*proxyTimeout)
	}
	var agg ClusterMetricsResponse
	if err := json.Unmarshal(data, &agg); err != nil {
		t.Fatal(err)
	}
	if _, ok := agg.Errors[nodeID(2)]; !ok || len(agg.Errors) != 1 {
		t.Errorf("errors = %v, want exactly the wedged %s", agg.Errors, nodeID(2))
	}
	for _, id := range []string{nodeID(0), nodeID(1)} {
		if _, ok := agg.Nodes[id]; !ok {
			t.Errorf("live %s missing from nodes", id)
		}
	}
	if len(agg.Nodes) != 2 {
		t.Errorf("aggregate has %d nodes, want 2", len(agg.Nodes))
	}
}
