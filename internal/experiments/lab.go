// Package experiments reproduces every figure of the paper's evaluation
// (Figures 2-12 — the paper has no numbered tables) as a runnable
// experiment over the mcdvfs simulator, plus the governor comparison the
// paper's Section VII implies. Each experiment returns structured results
// and a rendered text table; the bench harness at the repository root calls
// the same runners.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"mcdvfs/internal/cache/lru"
	"mcdvfs/internal/core"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

// Lab owns the simulated platform and caches collected grids, since grid
// collection is the expensive step shared by every experiment. It is safe
// for concurrent use: grids live in one bounded singleflight cache
// (internal/cache/lru) keyed by benchmark and space, so N goroutines
// requesting the same grid trigger exactly one collection and requests for
// different grids proceed independently.
type Lab struct {
	sys    *sim.System
	cfg    sim.Config
	coarse *freq.Space
	fine   *freq.Space

	workers  int    // Collect worker-pool size; 0 means GOMAXPROCS
	cacheDir string // persistent grid cache directory; "" disables
	maxGrids int    // resident-grid bound; <= 0 means every registry key in both spaces

	observer func(GridEvent)                  // grid-cache outcome hook; nil disables
	gate     CollectGate                      // admission control around collections; nil admits all
	progress func(done, total int)            // per-column collection progress; nil disables
	span     func(bench, space string) func() // brackets every owned grid flight; nil disables

	grids *lru.Cache[GridKey, *gridEntry]

	// collect is the collection entry point; tests swap it to count
	// flights or inject faults.
	collect func(ctx context.Context, sys *sim.System, b workload.Benchmark, space *freq.Space, opts trace.CollectOptions) (*trace.Grid, error)
}

// Option configures a Lab at construction.
type Option func(*Lab)

// WithWorkers bounds the collection worker pool. Zero or negative selects
// the default (GOMAXPROCS).
func WithWorkers(n int) Option { return func(l *Lab) { l.workers = n } }

// WithGridCacheDir enables the persistent grid cache: collected grids are
// written to dir as JSON keyed by (benchmark, space, platform-config hash)
// and reloaded instead of recollected by any later Lab with an identical
// configuration. Store failures are non-fatal; the in-memory result is
// used regardless.
func WithGridCacheDir(dir string) Option { return func(l *Lab) { l.cacheDir = dir } }

// WithMaxGrids bounds how many grids the lab keeps resident, counting a
// benchmark's coarse and fine grids separately; an insertion past the
// bound evicts the least recently used grid with its analysis. Zero or
// negative selects the default, every registry benchmark in both spaces,
// so nothing is ever evicted.
func WithMaxGrids(n int) Option { return func(l *Lab) { l.maxGrids = n } }

// GridKey names one cached grid: a benchmark in the "coarse" or "fine"
// space.
type GridKey struct {
	Benchmark string
	Space     string
}

// gridEntry is one resident grid and its analysis, built at most once on
// first use. Evicting the entry drops both.
type gridEntry struct {
	grid *trace.Grid

	once     sync.Once
	analysis *core.Analysis
	err      error
}

func (e *gridEntry) analyze() (*core.Analysis, error) {
	e.once.Do(func() { e.analysis, e.err = core.NewAnalysis(e.grid) })
	return e.analysis, e.err
}

// GridEventKind classifies how one grid request was satisfied.
type GridEventKind int

const (
	// GridHit: the request joined an existing cache entry — a completed
	// grid, or an in-flight collection it coalesced onto.
	GridHit GridEventKind = iota
	// GridDiskLoad: the grid was reloaded from the persistent cache.
	GridDiskLoad
	// GridCollect: a full collection ran.
	GridCollect
	// GridEvict: the resident-grid bound displaced this grid. Forget does
	// not emit it.
	GridEvict
)

// GridEvent describes one successfully satisfied grid request, or one
// eviction.
type GridEvent struct {
	Benchmark string
	Space     string // "coarse" or "fine"
	Kind      GridEventKind
}

// WithGridObserver registers fn to be called once per successful grid
// request with how it was satisfied, and once per eviction. fn runs on the
// requesting goroutine (or the collecting one, for GridCollect/GridDiskLoad,
// or the inserting one, for GridEvict) and must be safe for concurrent use
// and fast — it sits on the grid hot path. The serve layer uses it to
// export cache, coalescing and eviction counters.
func WithGridObserver(fn func(GridEvent)) Option { return func(l *Lab) { l.observer = fn } }

// CollectGate admits one grid collection. Implementations return a release
// func to call when the collection finishes, or an error (e.g. a
// saturation sentinel) to fail the flight without collecting — the error
// propagates to every request coalesced onto the flight. A nil gate admits
// everything.
type CollectGate func(ctx context.Context) (release func(), err error)

// WithCollectGate bounds collections with an admission gate: the lab
// acquires the gate after the persistent cache misses and before the sweep
// starts, so cache hits and coalesced joins never consume a slot. The
// serve layer supplies its bounded worker pool here.
func WithCollectGate(g CollectGate) Option { return func(l *Lab) { l.gate = g } }

// WithCollectProgress registers a per-column progress hook forwarded to
// trace.CollectOptions.OnProgress for every collection this lab runs; fn
// must be safe for concurrent use.
func WithCollectProgress(fn func(done, total int)) Option {
	return func(l *Lab) { l.progress = fn }
}

// WithCollectSpan registers fn to bracket every grid-cache flight this
// lab owns: fn is called on the flight-owning goroutine when the flight
// starts (before the persistent-cache probe, the admission gate, and the
// collection itself) and the returned done func when the flight finishes,
// success or failure. Coalesced joiners never trigger fn — exactly one
// span per flight. Tracing harnesses use it to time flights.
func WithCollectSpan(fn func(bench, space string) (done func())) Option {
	return func(l *Lab) { l.span = fn }
}

// NewLab builds a lab over the default calibrated platform.
func NewLab(opts ...Option) (*Lab, error) {
	return NewLabWithConfig(sim.DefaultConfig(), opts...)
}

// NewLabWithConfig builds a lab over a custom platform configuration.
func NewLabWithConfig(cfg sim.Config, opts ...Option) (*Lab, error) {
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	l := &Lab{
		sys:     sys,
		cfg:     cfg,
		coarse:  freq.CoarseSpace(),
		fine:    freq.FineSpace(),
		collect: trace.CollectContext,
	}
	for _, opt := range opts {
		opt(l)
	}
	if l.maxGrids <= 0 {
		l.maxGrids = 2 * len(workload.Names())
	}
	l.grids, err = lru.New[GridKey, *gridEntry](l.maxGrids, func(k GridKey) { l.emit(k, GridEvict) })
	if err != nil {
		return nil, err
	}
	return l, nil
}

// System returns the lab's simulator.
func (l *Lab) System() *sim.System { return l.sys }

// CoarseSpace returns the 70-setting space.
func (l *Lab) CoarseSpace() *freq.Space { return l.coarse }

// FineSpace returns the 496-setting space.
func (l *Lab) FineSpace() *freq.Space { return l.fine }

// Grid returns the coarse grid for a benchmark, collecting it on first use.
func (l *Lab) Grid(bench string) (*trace.Grid, error) {
	return l.GridContext(context.Background(), bench)
}

// GridContext is Grid with cancellation: a caller that joins an in-flight
// collection and is cancelled returns promptly with ctx's error while the
// collection itself completes for the remaining waiters; if the collecting
// caller is cancelled, the flight is abandoned and no partial grid stays
// cached.
func (l *Lab) GridContext(ctx context.Context, bench string) (*trace.Grid, error) {
	return l.gridFor(ctx, bench, "coarse")
}

// FineGrid returns the fine-step grid for a benchmark.
func (l *Lab) FineGrid(bench string) (*trace.Grid, error) {
	return l.FineGridContext(context.Background(), bench)
}

// FineGridContext is FineGrid with cancellation (see GridContext).
func (l *Lab) FineGridContext(ctx context.Context, bench string) (*trace.Grid, error) {
	return l.gridFor(ctx, bench, "fine")
}

func (l *Lab) gridFor(ctx context.Context, bench, spaceName string) (*trace.Grid, error) {
	e, err := l.entry(ctx, bench, spaceName)
	if err != nil {
		return nil, err
	}
	return e.grid, nil
}

func (l *Lab) analysisFor(ctx context.Context, bench, spaceName string) (*core.Analysis, error) {
	e, err := l.entry(ctx, bench, spaceName)
	if err != nil {
		return nil, err
	}
	return e.analyze()
}

// entry returns the resident entry for (bench, spaceName), running at most
// one flight per entry: persistent-cache probe, admission gate, then
// collection.
func (l *Lab) entry(ctx context.Context, bench, spaceName string) (*gridEntry, error) {
	b, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	space, err := l.spaceFor(spaceName)
	if err != nil {
		return nil, err
	}
	key := GridKey{Benchmark: bench, Space: spaceName}
	e, joined, err := l.grids.Do(ctx, key, func() (*gridEntry, error) {
		if l.span != nil {
			done := l.span(bench, spaceName)
			defer done()
		}
		var path string
		if l.cacheDir != "" {
			disk := diskCache{dir: l.cacheDir}
			path = disk.path(bench, spaceName, gridKeyHash(l.cfg, space))
			if g := disk.load(path, bench, space); g != nil {
				l.emit(key, GridDiskLoad)
				return &gridEntry{grid: g}, nil
			}
		}
		if l.gate != nil {
			release, err := l.gate(ctx)
			if err != nil {
				return nil, fmt.Errorf("experiments: collecting %s %s: %w", spaceName, bench, err)
			}
			defer release()
		}
		g, err := l.collect(ctx, l.sys, b, space, trace.CollectOptions{Workers: l.workers, OnProgress: l.progress})
		if err != nil {
			return nil, fmt.Errorf("experiments: collecting %s %s: %w", spaceName, bench, err)
		}
		l.emit(key, GridCollect)
		if path != "" {
			_ = diskCache{dir: l.cacheDir}.store(path, g) // best-effort
		}
		return &gridEntry{grid: g}, nil
	})
	if err != nil {
		return nil, err
	}
	if joined {
		l.emit(key, GridHit)
	}
	return e, nil
}

func (l *Lab) emit(k GridKey, kind GridEventKind) {
	if l.observer != nil {
		l.observer(GridEvent{Benchmark: k.Benchmark, Space: k.Space, Kind: kind})
	}
}

// spaceFor resolves a published space name. Only "coarse" and "fine"
// exist; the empty string is not accepted here — callers normalize first.
func (l *Lab) spaceFor(spaceName string) (*freq.Space, error) {
	switch spaceName {
	case "coarse":
		return l.coarse, nil
	case "fine":
		return l.fine, nil
	default:
		return nil, fmt.Errorf("experiments: unknown space %q (use coarse or fine)", spaceName)
	}
}

// GridKeyHash returns the platform fingerprint a stored or replicated
// grid depends on: the full simulator configuration plus the exact
// setting list of the named space — the same hash that keys the
// persistent disk cache. Two labs (or two cluster nodes) agree on a grid
// key iff this hash matches, so a recalibrated platform can never be
// routed onto a peer's stale shard.
func (l *Lab) GridKeyHash(spaceName string) (string, error) {
	space, err := l.spaceFor(spaceName)
	if err != nil {
		return "", err
	}
	return gridKeyHash(l.cfg, space), nil
}

// PeekGrid returns the completed cached grid for a benchmark in the named
// space without collecting, joining an in-flight collection, or touching
// the persistent cache. It is the cluster's warm-replica probe: a node
// answering a cached-only request must never be dragged into a
// collection.
func (l *Lab) PeekGrid(bench, spaceName string) (*trace.Grid, bool) {
	e, ok := l.grids.Peek(GridKey{Benchmark: bench, Space: spaceName})
	if !ok {
		return nil, false
	}
	return e.grid, true
}

// SeedGrid installs an externally obtained grid — typically replicated
// from a cluster peer's response — into the in-memory cache, if no entry
// for the key exists. A seeded grid is an ordinary entry: it counts
// against the resident bound and may evict. The grid is validated the same
// way a persistent-cache load is (gridMatches); a mismatched grid is
// rejected rather than poisoning the cache. It reports whether the grid
// was stored.
func (l *Lab) SeedGrid(bench, spaceName string, g *trace.Grid) bool {
	space, err := l.spaceFor(spaceName)
	if err != nil || g == nil || !gridMatches(g, bench, space) {
		return false
	}
	return l.grids.PutIfAbsent(GridKey{Benchmark: bench, Space: spaceName}, &gridEntry{grid: g})
}

// Forget drops every cached artifact for a benchmark — coarse and fine
// grids plus their analyses — so the next request recollects. In-flight
// collections are unaffected: their waiters still get the result, it just
// is not retained. It reports whether anything was cached.
func (l *Lab) Forget(bench string) bool {
	dropped := l.grids.Remove(GridKey{Benchmark: bench, Space: "coarse"})
	return l.grids.Remove(GridKey{Benchmark: bench, Space: "fine"}) || dropped
}

// ResidentGrids returns how many grids the cache holds, running flights
// included.
func (l *Lab) ResidentGrids() int { return l.grids.Len() }

// InflightGrids lists the resident grids whose flight is still running,
// most recently used first.
func (l *Lab) InflightGrids() []GridKey { return l.grids.Inflight() }

// Analysis returns the cached coarse-grid analysis for a benchmark.
func (l *Lab) Analysis(bench string) (*core.Analysis, error) {
	return l.AnalysisContext(context.Background(), bench)
}

// AnalysisContext is Analysis with cancellation of the underlying
// collection.
func (l *Lab) AnalysisContext(ctx context.Context, bench string) (*core.Analysis, error) {
	return l.analysisFor(ctx, bench, "coarse")
}

// FineAnalysis returns the cached fine-grid analysis for a benchmark.
func (l *Lab) FineAnalysis(bench string) (*core.Analysis, error) {
	return l.FineAnalysisContext(context.Background(), bench)
}

// FineAnalysisContext is FineAnalysis with cancellation of the underlying
// collection.
func (l *Lab) FineAnalysisContext(ctx context.Context, bench string) (*core.Analysis, error) {
	return l.analysisFor(ctx, bench, "fine")
}
