package cluster

// Node is one cluster member: a full mcdvfsd (serve.Server) wrapped in a
// thin router. Requests routable by key — POST /v1/grid and /v1/optimal
// with a named benchmark — are served locally when this node owns the
// key and proxied to the owner otherwise; everything else (inline
// workloads, predictors, registry, health, metrics) is served locally.
//
// The routing invariants:
//
//   - Loop guard: a request carrying X-MCDVFS-Forwarded is never proxied
//     again. Under ring agreement it landed on the owner; under
//     disagreement (mid-rollout mixed peer lists) it is served where it
//     landed rather than bouncing.
//   - Cluster-wide singleflight: proxies forward to the owner, whose Lab
//     singleflight coalesces every caller of a key while the owner
//     answers.
//   - Local fallback, the one recovery: when the owner is unreachable,
//     outlives ProxyTimeout, sheds (429) or refuses as draining, the
//     receiving node answers from its own Lab, behind its own admission
//     gate. A grid is a pure function of its key, so the answer is the
//     one the owner would have given.
//   - Drain: a draining node refuses newly proxied ring writes with 503 +
//     X-MCDVFS-Draining, so the proxying node answers them itself, while
//     flights already in progress finish under the normal connection
//     drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"mcdvfs/internal/serve"
)

// Wire headers of the cluster protocol.
const (
	// HeaderForwarded carries the proxying node's ID; its presence is the
	// loop guard.
	HeaderForwarded = "X-MCDVFS-Forwarded"
	// HeaderDraining marks a refusal from a draining node; the proxying
	// node answers the request itself.
	HeaderDraining = "X-MCDVFS-Draining"
	// HeaderNode names the node that actually served a routed response.
	HeaderNode = "X-MCDVFS-Node"
)

// Config assembles one node.
type Config struct {
	// Self is this node's ring ID. In production it is the advertise URL
	// and must appear in Peers.
	Self string
	// Peers maps every ring member's ID to its base URL, self included.
	Peers map[string]string
	// ProxyTimeout bounds every request to a peer: a forward or a
	// metrics scrape. On a forward's expiry the proxy answers locally.
	// Default 15s.
	ProxyTimeout time.Duration
	// DrainHint is phase one of the two-phase drain: how long the node
	// keeps answering (refusing ring writes with the draining hint) after
	// shutdown begins, so peers observe the hint and answer locally before
	// the listener closes. Default 250ms.
	DrainHint time.Duration
	// Serve configures the embedded daemon.
	Serve serve.Config
}

func (c Config) withDefaults() Config {
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 15 * time.Second
	}
	if c.DrainHint <= 0 {
		c.DrainHint = 250 * time.Millisecond
	}
	return c
}

// Node is one cluster member.
type Node struct {
	cfg      Config
	self     string
	ring     *Ring
	srv      *serve.Server
	met      *clusterMetrics
	client   *http.Client
	mux      *http.ServeMux
	draining atomic.Bool
}

// NewNode builds a node and its embedded daemon. The ring is fixed at
// construction (static peer lists for now); every peer must build its
// ring from the same ID set to route identically.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self is required")
	}
	if _, ok := cfg.Peers[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: self %q missing from peer map", cfg.Self)
	}
	ids := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		ids = append(ids, id)
	}
	ring, err := NewRing(ids, DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:    cfg,
		self:   cfg.Self,
		ring:   ring,
		met:    &clusterMetrics{},
		client: &http.Client{},
		mux:    http.NewServeMux(),
	}
	n.srv, err = serve.New(cfg.Serve)
	if err != nil {
		return nil, err
	}
	n.routes()
	return n, nil
}

// Server exposes the embedded daemon (harnesses saturate its admission
// pool and reach its Lab through it).
func (n *Node) Server() *serve.Server { return n.srv }

// Ring exposes the node's routing ring.
func (n *Node) Ring() *Ring { return n.ring }

// ID returns the node's ring ID.
func (n *Node) ID() string { return n.self }

func (n *Node) peerURL(id string) string {
	return strings.TrimRight(n.cfg.Peers[id], "/")
}

func (n *Node) routes() {
	n.mux.HandleFunc("POST /v1/grid", n.route)
	n.mux.HandleFunc("POST /v1/optimal", n.route)
	n.mux.HandleFunc("GET /v1/cluster/ring", n.handleRing)
	n.mux.HandleFunc("GET /v1/cluster/metrics", n.handleClusterMetrics)
	n.mux.HandleFunc("GET /metrics", n.handleMetrics)
	n.mux.Handle("/", n.srv.Handler())
}

// Handler returns the node's root handler: the router in front of the
// embedded daemon.
func (n *Node) Handler() http.Handler { return n.mux }

// serveLocal dispatches to the embedded daemon, stamping which node
// served.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(HeaderNode, n.self)
	n.srv.Handler().ServeHTTP(w, r)
}

// routeProbe is the loose pre-parse of a routable body: only the routing
// fields matter here; the local handler re-decodes strictly.
type routeProbe struct {
	Benchmark string `json:"benchmark"`
	Space     string `json:"space"`
}

// route is the router for key-addressable endpoints, /v1/grid and
// /v1/optimal alike.
func (n *Node) route(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	forwarded := r.Header.Get(HeaderForwarded)
	if forwarded != "" && n.draining.Load() {
		// Phase one of the drain: this node is leaving the ring, so newly
		// proxied writes are refused with the hint and the proxying node
		// answers them itself. Requests from this node's own clients still
		// drain normally.
		n.met.drainRefusals.Add(1)
		w.Header().Set(HeaderDraining, "1")
		serve.WriteError(w, http.StatusServiceUnavailable, "node draining; fail over")
		return
	}

	var probe routeProbe
	_ = json.Unmarshal(body, &probe) // malformed bodies route local; the handler 400s
	key, err := n.srv.Lab().Key(probe.Benchmark, probe.Space)
	r.Body = io.NopCloser(bytes.NewReader(body))
	if probe.Benchmark == "" || err != nil {
		// Inline workloads and invalid requests are not key-addressable.
		n.serveLocal(w, r)
		return
	}
	owner := n.ring.Owner(key.String())

	if owner == n.self || forwarded != "" {
		if forwarded != "" {
			n.met.forwardedServed.Add(1)
		}
		n.serveLocal(w, r)
		return
	}
	n.proxy(w, r, body, owner)
}

// proxy forwards a routable request to its owner and relays the answer.
// Its one recovery is the local answer: when the forward fails, outlives
// ProxyTimeout, or the owner declines it, this node answers from its own
// Lab, behind its own admission gate, which sheds with this node's own
// hint if it is saturated too. A client that has already gone gets 504.
func (n *Node) proxy(w http.ResponseWriter, r *http.Request, body []byte, owner string) {
	ctx := r.Context()
	n.met.proxied.Add(1)
	resp, err := n.forward(ctx, owner, r.URL.Path, r.Header.Get("Content-Type"), body)
	if err != nil {
		n.met.proxyErrors.Add(1)
	}
	switch {
	case err != nil && ctx.Err() != nil:
		serve.WriteError(w, http.StatusGatewayTimeout, fmt.Sprintf("forward to %s: %v", owner, err))
	case err == nil && !declined(resp):
		n.relay(w, resp)
	default:
		n.met.localFallbacks.Add(1)
		r.Body = io.NopCloser(bytes.NewReader(body))
		n.serveLocal(w, r)
	}
}

// declined reports whether the owner refused to answer: it shed the
// request (429) or is draining (503 with the draining hint).
func declined(resp *peerResponse) bool {
	return resp.status == http.StatusTooManyRequests ||
		resp.status == http.StatusServiceUnavailable && resp.header.Get(HeaderDraining) != ""
}

// peerResponse is one fully read peer response.
type peerResponse struct {
	status int
	header http.Header
	body   []byte
}

// peer is the one request path to another ring member: a POST of body
// (a GET when body is nil) carrying hdr, bounded by ProxyTimeout, with the
// full response read. A peer that accepts the connection but never
// answers therefore fails after ProxyTimeout, whether a forward or a
// metrics scrape asked. Reading the whole body before relaying keeps a
// body cut short recoverable: the read fails and the proxy answers
// locally instead of relaying a truncated 200.
func (n *Node) peer(ctx context.Context, id, path string, body []byte, hdr http.Header) (*peerResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, n.cfg.ProxyTimeout)
	defer cancel()
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, n.peerURL(id)+path, rd)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	//lint:allow errflow read-only response body; a close error after a full read carries no data loss
	defer resp.Body.Close()
	// bytes.Buffer doubles as it reads. io.ReadAll grows by about a
	// quarter per step, so it would reallocate a 2 MB grid body about 34
	// times and copy it about five times over.
	var data bytes.Buffer
	if _, err := data.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	return &peerResponse{status: resp.StatusCode, header: resp.Header, body: data.Bytes()}, nil
}

// forward sends a routable request on to ring member id under the loop
// guard.
func (n *Node) forward(ctx context.Context, id, path, contentType string, body []byte) (*peerResponse, error) {
	hdr := http.Header{}
	if contentType != "" {
		hdr.Set("Content-Type", contentType)
	}
	hdr.Set(HeaderForwarded, n.self)
	return n.peer(ctx, id, path, body, hdr)
}

// relay writes a peer response through to the client. Shed and draining
// refusals are never relayed, so neither are their hints.
func (n *Node) relay(w http.ResponseWriter, resp *peerResponse) {
	for _, h := range []string{"Content-Type", HeaderNode} {
		if v := resp.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body) // best effort: the peer response is already final
}

// RingResponse is the JSON body of GET /v1/cluster/ring.
type RingResponse struct {
	Self     string   `json:"self"`
	Nodes    []string `json:"nodes"`
	VNodes   int      `json:"vnodes"`
	Draining bool     `json:"draining"`
}

// handleRing describes this node's view of the ring.
func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, RingResponse{
		Self:     n.self,
		Nodes:    n.ring.Nodes(),
		VNodes:   n.ring.vnodes,
		Draining: n.draining.Load(),
	})
}

// handleMetrics serves the embedded daemon's exposition with the cluster
// counters appended — one scrape shows both layers.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	n.srv.Handler().ServeHTTP(w, r)
	n.met.write(w, n.ring.Len())
}

// BeginDrain starts phase one of the drain: newly proxied ring writes are
// refused with the draining hint (so peers answer them) and the embedded
// daemon's health check flips to 503. In-flight work, including proxied
// collections already past the router, continues.
func (n *Node) BeginDrain() {
	if n.draining.CompareAndSwap(false, true) {
		n.srv.BeginDrain()
	}
}

// Run serves the node on addr until ctx is cancelled, then drains in two
// phases: first the node deregisters from the ring's write path — it
// keeps answering for DrainHint, refusing newly proxied writes with the
// draining hint so peers answer them — then the listener closes and
// in-flight requests get up to drain to finish. A nil error is a clean
// drain.
func (n *Node) Run(ctx context.Context, addr string, drain time.Duration) error {
	return serve.ListenAndDrain(ctx, addr, n.Handler(), n.BeginDrain, n.cfg.DrainHint, drain)
}
