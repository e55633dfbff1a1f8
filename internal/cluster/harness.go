package cluster

// TestHarness stands up an in-process N-node cluster over
// httptest.Servers. Node IDs are stable logical names ("node0",
// "node1", ...) rather than the listeners' random URLs, so ring
// ownership — and therefore every test's routing — is identical run to
// run; the peer map translates IDs to the ephemeral URLs.
//
// Construction has a chicken-and-egg shape: every node needs the full
// ID→URL peer map, but a listener's URL only exists once its server is
// up. The harness resolves it by starting each listener behind a
// swappable handler that answers 503 until the real node is installed.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"

	"mcdvfs/internal/serve"
)

// swapHandler is an http.Handler whose target can be installed after the
// listener is already serving.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "cluster: node not ready", http.StatusServiceUnavailable)
}

// HarnessConfig shapes a test cluster.
type HarnessConfig struct {
	// Nodes is the cluster size; <= 0 selects 3.
	Nodes int
	// Serve seeds every node's embedded daemon config. Each node gets its
	// own copy.
	Serve serve.Config
	// Mutate, when set, edits node i's assembled Config before NewNode —
	// the hook for per-node tweaks like a tiny ProxyTimeout on one proxy.
	Mutate func(i int, cfg *Config)
}

// TestHarness is a running in-process cluster.
type TestHarness struct {
	nodes   []*Node
	servers []*httptest.Server
	urls    map[string]string // logical ID -> listener URL
}

// NewTestHarness starts the cluster. Callers own Close.
func NewTestHarness(cfg HarnessConfig) (*TestHarness, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	h := &TestHarness{urls: make(map[string]string, cfg.Nodes)}
	swaps := make([]*swapHandler, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		h.servers = append(h.servers, ts)
		h.urls[nodeID(i)] = ts.URL
	}
	for i := 0; i < cfg.Nodes; i++ {
		peers := make(map[string]string, cfg.Nodes)
		for id, url := range h.urls {
			peers[id] = url
		}
		ncfg := Config{
			Self:  nodeID(i),
			Peers: peers,
			Serve: cfg.Serve,
		}
		if cfg.Mutate != nil {
			cfg.Mutate(i, &ncfg)
		}
		n, err := NewNode(ncfg)
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("cluster: harness node %d: %w", i, err)
		}
		h.nodes = append(h.nodes, n)
		handler := n.Handler()
		swaps[i].h.Store(&handler)
	}
	return h, nil
}

func nodeID(i int) string { return fmt.Sprintf("node%d", i) }

// Close shuts every listener down.
func (h *TestHarness) Close() {
	for _, ts := range h.servers {
		ts.Close()
	}
}

// Len is the cluster size.
func (h *TestHarness) Len() int { return len(h.nodes) }

// Node returns node i.
func (h *TestHarness) Node(i int) *Node { return h.nodes[i] }

// URL returns node i's base URL.
func (h *TestHarness) URL(i int) string { return h.servers[i].URL }

// URLs returns every node's base URL in node order.
func (h *TestHarness) URLs() []string {
	out := make([]string, len(h.servers))
	for i, ts := range h.servers {
		out[i] = ts.URL
	}
	return out
}

// NodeFor returns the index of the node owning key's benchmark/space on
// the harness ring (every node shares one ring, so node 0's view is the
// cluster's).
func (h *TestHarness) NodeFor(bench, space string) int {
	key, err := h.nodes[0].srv.Lab().Key(bench, space)
	if err != nil {
		return -1
	}
	owner := h.nodes[0].ring.Owner(key.String())
	for i := range h.nodes {
		if h.nodes[i].self == owner {
			return i
		}
	}
	return -1
}
