package cluster

// Cluster-layer observability: the node's own routing counters (appended
// to the embedded daemon's /metrics exposition) and the cluster-wide
// aggregation endpoint, GET /v1/cluster/metrics, which scrapes every
// peer's /metrics, sums the shared counter set, and reports the per-node
// breakdown — one scrape shows whether coalescing is absorbing demand
// across the whole ring.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"mcdvfs/internal/serve"
)

// clusterMetrics is the node's routing counter set, exported under
// mcdvfsd_cluster_* next to the daemon's own counters.
type clusterMetrics struct {
	proxied         atomic.Int64 // requests this node forwarded to a key's owner
	forwardedServed atomic.Int64 // forwarded requests this node served as owner (or loop-guard target)
	proxyErrors     atomic.Int64 // forwards that failed at the transport layer or timed out
	inflightWaits   atomic.Int64 // times a proxy waited on an owner-published in-flight key
	localFallbacks  atomic.Int64 // proxied requests answered from this node's own Lab after the owner failed
	drainRefusals   atomic.Int64 // proxied ring writes refused because this node is draining
	drainFailovers  atomic.Int64 // proxied requests this node re-routed past a draining owner
}

// write renders the exposition lines. Gauges come from the node.
func (m *clusterMetrics) write(w io.Writer, inflightKeys, ringNodes int) {
	counter := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	gauge := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v)
	}
	counter("mcdvfsd_cluster_proxied_total", m.proxied.Load())
	counter("mcdvfsd_cluster_forwarded_served_total", m.forwardedServed.Load())
	counter("mcdvfsd_cluster_proxy_errors_total", m.proxyErrors.Load())
	counter("mcdvfsd_cluster_inflight_waits_total", m.inflightWaits.Load())
	counter("mcdvfsd_cluster_local_fallbacks_total", m.localFallbacks.Load())
	counter("mcdvfsd_cluster_drain_refusals_total", m.drainRefusals.Load())
	counter("mcdvfsd_cluster_drain_failovers_total", m.drainFailovers.Load())
	gauge("mcdvfsd_cluster_inflight_keys", int64(inflightKeys))
	gauge("mcdvfsd_cluster_nodes", int64(ringNodes))
}

// ClusterMetricsResponse is the JSON body of GET /v1/cluster/metrics.
type ClusterMetricsResponse struct {
	// Nodes maps node ID to that node's full counter set.
	Nodes map[string]map[string]int64 `json:"nodes"`
	// Total sums every counter observed on any node. Gauges sum too —
	// e.g. cluster-wide in-flight requests.
	Total map[string]int64 `json:"total"`
	// Errors maps unreachable node IDs to the scrape failure. A partial
	// aggregation is still served; the caller sees exactly which nodes
	// are dark.
	Errors map[string]string `json:"errors,omitempty"`
}

// handleClusterMetrics scrapes every ring member's /metrics concurrently
// and serves the summed view with per-node breakdown.
func (n *Node) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	ids := n.ring.Nodes()
	type scrape struct {
		id  string
		m   map[string]int64
		err error
	}
	results := make([]scrape, len(ids))
	// The scrape goroutines share the request's context, not the request.
	ctx := r.Context()
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			m, err := n.scrapePeer(ctx, id)
			results[i] = scrape{id: id, m: m, err: err}
		}(i, id)
	}
	wg.Wait()

	resp := ClusterMetricsResponse{
		Nodes: make(map[string]map[string]int64),
		Total: make(map[string]int64),
	}
	for _, s := range results {
		if s.err != nil {
			if resp.Errors == nil {
				resp.Errors = make(map[string]string)
			}
			resp.Errors[s.id] = s.err.Error()
			continue
		}
		resp.Nodes[s.id] = s.m
		names := make([]string, 0, len(s.m))
		for name := range s.m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			resp.Total[name] += s.m[name]
		}
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// scrapePeer fetches and parses one ring member's /metrics.
func (n *Node) scrapePeer(ctx context.Context, id string) (map[string]int64, error) {
	resp, err := n.peer(ctx, id, "/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if resp.status != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s /metrics returned %d", id, resp.status)
	}
	return serve.ParseMetrics(bytes.NewReader(resp.body))
}
