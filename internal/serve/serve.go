// Package serve implements mcdvfsd, the always-on DVFS query daemon: the
// paper's decision procedure — given a workload and an energy budget, pick
// the (CPU, memory) frequency schedule minimizing runtime — exposed as an
// HTTP/JSON service instead of one-shot CLIs.
//
// The service layers on the Lab's bounded singleflight grid cache
// (internal/cache/lru): identical in-flight grid requests coalesce to one
// collection, at most MaxBenchmarks grids stay resident (the least
// recently used is evicted with its analysis), collections run behind a
// bounded admission pool with a finite wait queue (saturation sheds with
// 429 + Retry-After), and /v1/optimal answers are memoized in a second
// cache of the same type. Every handler threads the request context, so a
// client disconnect cancels the work it owns. See DESIGN.md §8.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"mcdvfs/internal/cache/lru"
	"mcdvfs/internal/experiments"
)

// Config tunes the daemon. The zero value serves with the defaults below.
type Config struct {
	// CollectWorkers bounds the worker pool inside one grid collection
	// (trace.CollectOptions.Workers). Zero means GOMAXPROCS.
	CollectWorkers int
	// PoolSize is the number of grid collections allowed to run
	// concurrently. Default 2.
	PoolSize int
	// QueueDepth is how many collection admissions may wait behind a full
	// pool before requests are shed with 429. Default 8.
	QueueDepth int
	// MaxBenchmarks bounds how many grids the daemon's Lab keeps resident;
	// the least recently requested is evicted first. A benchmark cached in
	// both spaces takes two. Default DefaultMaxBenchmarks.
	MaxBenchmarks int
	// MemoSize bounds the /v1/optimal response memo. Default 256.
	MemoSize int
	// RequestTimeout caps each request's context. Zero disables.
	RequestTimeout time.Duration
	// RetryAfter is the hint attached to 429 responses, sent in whole
	// seconds rounded up. Default 1s.
	RetryAfter time.Duration
	// CollectSpan, when set, brackets every grid-cache flight the daemon's
	// Lab owns (experiments.WithCollectSpan): called when a flight starts,
	// the returned func when it finishes. Tracing harnesses use it to time
	// flights.
	CollectSpan func(bench, space string) (done func())
}

// DefaultMaxBenchmarks is Config.MaxBenchmarks when unset.
const DefaultMaxBenchmarks = 16

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = 2
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	} else if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.MaxBenchmarks <= 0 {
		c.MaxBenchmarks = DefaultMaxBenchmarks
	}
	if c.MemoSize <= 0 {
		c.MemoSize = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the mcdvfsd daemon: a Lab wrapped in admission control,
// memoization, and metrics, exposed over HTTP.
type Server struct {
	cfg      Config
	lab      *experiments.Lab
	pool     *pool
	met      *metrics
	optMemo  *lru.Cache[optimalKey, *OptimalResponse] // answers are pure functions of grid and budget
	mux      *http.ServeMux
	draining atomic.Bool
}

// New builds a server. The Lab is constructed here so the cache hooks
// (observer, gate, progress) and the resident-grid bound are wired
// consistently.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		pool: newPool(cfg.PoolSize, cfg.QueueDepth),
		met:  &metrics{},
		mux:  http.NewServeMux(),
	}
	var err error
	s.optMemo, err = lru.New[optimalKey, *OptimalResponse](cfg.MemoSize, nil)
	if err != nil {
		return nil, err
	}

	opts := []experiments.Option{
		experiments.WithWorkers(cfg.CollectWorkers),
		experiments.WithMaxGrids(cfg.MaxBenchmarks),
		experiments.WithGridObserver(s.met.gridEvent),
		experiments.WithCollectGate(s.pool.acquire),
		experiments.WithCollectProgress(s.met.collectProgress),
	}
	if cfg.CollectSpan != nil {
		opts = append(opts, experiments.WithCollectSpan(cfg.CollectSpan))
	}
	s.lab, err = experiments.NewLab(opts...)
	if err != nil {
		return nil, err
	}
	s.routes()
	return s, nil
}

// requestCtx derives the handler context: the request's own context (so a
// client disconnect cancels work the request owns) bounded by the
// configured per-request deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// Handler returns the instrumented root handler: every request is counted,
// the in-flight gauge tracks it, and its response class is tallied.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.requests.Add(1)
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w}
		s.mux.ServeHTTP(rec, r)
		if rec.code == 0 {
			rec.code = http.StatusOK
		}
		s.met.countResponse(rec.code)
	})
}

// Run serves on addr until ctx is cancelled, then drains: the health check
// flips to 503 for load balancers, listeners close, and in-flight requests
// get up to drain to finish. A nil error means a clean drain.
func (s *Server) Run(ctx context.Context, addr string, drain time.Duration) error {
	return ListenAndDrain(ctx, addr, s.Handler(), s.beginDrain, 0, drain)
}

// ListenAndDrain serves h on addr until ctx is cancelled, then drains in
// two phases. Phase one calls beginDrain and keeps the listener open for
// hint, so peers and load balancers observe the drain before connections
// are refused; a zero hint skips it. Phase two closes the listener and
// gives in-flight requests up to drain to finish. A nil error is a clean
// drain.
func ListenAndDrain(ctx context.Context, addr string, h http.Handler, beginDrain func(), hint, drain time.Duration) error {
	// No BaseContext tied to ctx: a graceful drain must let in-flight
	// requests finish, not cancel them the moment shutdown begins.
	srv := &http.Server{Addr: addr, Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	beginDrain()
	// Both timers must survive the cancellation that triggered the drain.
	t := time.NewTimer(hint)
	defer t.Stop()
	select {
	case <-t.C:
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	}
	shutCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drain)
	defer cancel()
	return srv.Shutdown(shutCtx)
}

// beginDrain flips the server into draining mode: /healthz starts
// reporting 503 so load balancers stop routing here.
func (s *Server) beginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.met.draining.Store(1)
	}
}

// BeginDrain is the exported drain trigger for layers that own the
// server's lifecycle themselves (the cluster node flips the embedded
// server into draining as phase one of its two-phase drain, before its
// listener closes).
func (s *Server) BeginDrain() { s.beginDrain() }

// Lab exposes the daemon's Lab to layered subsystems: the cluster router
// takes its routing keys from Lab.Key.
func (s *Server) Lab() *experiments.Lab { return s.lab }

// AcquireCollectSlot takes one slot of the collection admission pool,
// exactly as a collecting request would: it blocks in the bounded queue
// when the pool is full, sheds with ErrSaturated when the queue is full
// too, and returns a release func on admission. Harnesses and saturation
// tests use it to occupy collection capacity deterministically — forced
// 429s without racing a real collection.
func (s *Server) AcquireCollectSlot(ctx context.Context) (func(), error) {
	return s.pool.acquire(ctx)
}
