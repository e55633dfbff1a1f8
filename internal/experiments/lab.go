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
// collection is the expensive step shared by every experiment. Collection
// is the only source of a grid: a grid is a pure function of its GridKey,
// and collecting it costs less than decoding a stored copy would. It is
// safe for concurrent use: grids live in one bounded singleflight cache
// (internal/cache/lru) keyed by GridKey, so N goroutines requesting the
// same grid trigger exactly one collection and requests for different
// grids proceed independently.
type Lab struct {
	cfg    sim.Config // the platform sys was built from
	sys    *sim.System
	coarse *freq.Space
	fine   *freq.Space
	spaces map[string]keyedSpace // "coarse" and "fine" with their hashes

	workers  int // Collect worker-pool size; 0 means GOMAXPROCS
	maxGrids int // resident-grid bound; <= 0 means every registry key in both spaces

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

// WithMaxGrids bounds how many grids the lab keeps resident, counting a
// benchmark's coarse and fine grids separately; an insertion past the
// bound evicts the least recently used grid with its analysis. Zero or
// negative selects the default, every registry benchmark in both spaces,
// so nothing is ever evicted.
func WithMaxGrids(n int) Option { return func(l *Lab) { l.maxGrids = n } }

// GridKey names one grid: a benchmark in the "coarse" or "fine" space on
// one platform. Hash fingerprints the simulator configuration and the
// space's setting list (gridKeyHash), so a recalibrated platform never
// shares a key with the old one. Lab.Key is the only constructor; the Lab
// refuses a key it did not issue.
type GridKey struct {
	Benchmark string
	Space     string
	Hash      string
}

// String renders the key as bench|space|hash: the cluster's routing key.
func (k GridKey) String() string { return k.Benchmark + "|" + k.Space + "|" + k.Hash }

// keyedSpace is one published setting space with its platform fingerprint.
type keyedSpace struct {
	space *freq.Space
	hash  string
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
// requesting goroutine (or the collecting one, for GridCollect, or the
// inserting one, for GridEvict) and must be safe for concurrent use
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
// acquires the gate when a flight starts and before the sweep does, so
// cache hits and coalesced joins never consume a slot. The
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
// starts (before the admission gate and the collection itself) and the
// returned done func when the flight finishes, success or failure.
// Coalesced joiners never trigger fn — exactly one span per flight.
// Tracing harnesses use it to time flights.
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
		cfg:     cfg,
		sys:     sys,
		coarse:  freq.CoarseSpace(),
		fine:    freq.FineSpace(),
		collect: trace.CollectContext,
	}
	l.spaces = map[string]keyedSpace{
		"coarse": {space: l.coarse, hash: gridKeyHash(cfg, l.coarse)},
		"fine":   {space: l.fine, hash: gridKeyHash(cfg, l.fine)},
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

// CoarseSpace returns the 70-setting space.
func (l *Lab) CoarseSpace() *freq.Space { return l.coarse }

// FineSpace returns the 496-setting space.
func (l *Lab) FineSpace() *freq.Space { return l.fine }

// Key names bench's grid in the named space; "" means coarse. It does not
// check the benchmark name: an unknown benchmark fails when its grid is
// requested.
func (l *Lab) Key(bench, space string) (GridKey, error) {
	if space == "" {
		space = "coarse"
	}
	if _, ok := l.spaces[space]; !ok {
		return GridKey{}, fmt.Errorf("unknown space %q (use coarse or fine)", space)
	}
	return l.key(bench, space), nil
}

// key is Key for a space name known to exist.
func (l *Lab) key(bench, space string) GridKey {
	return GridKey{Benchmark: bench, Space: space, Hash: l.spaces[space].hash}
}

// spaceOf resolves a key to its setting space, refusing a key this lab did
// not issue: its grid belongs to another platform.
func (l *Lab) spaceOf(k GridKey) (*freq.Space, error) {
	s, ok := l.spaces[k.Space]
	if !ok || s.hash != k.Hash {
		return nil, fmt.Errorf("experiments: grid key %s does not belong to this lab", k)
	}
	return s.space, nil
}

// GridFor returns the grid k names, collecting it on first use. An
// already-ended ctx returns its error, resident grid or not. A caller
// that joins an in-flight collection and is cancelled returns promptly
// with ctx's error while the collection itself completes for the
// remaining waiters; if the collecting caller is cancelled, the flight is
// abandoned and no partial grid stays cached.
func (l *Lab) GridFor(ctx context.Context, k GridKey) (*trace.Grid, error) {
	e, err := l.entry(ctx, k)
	if err != nil {
		return nil, err
	}
	return e.grid, nil
}

// AnalysisFor returns the analysis of the grid k names, built once per
// resident grid.
func (l *Lab) AnalysisFor(ctx context.Context, k GridKey) (*core.Analysis, error) {
	e, err := l.entry(ctx, k)
	if err != nil {
		return nil, err
	}
	return e.analyze()
}

// entry returns the resident entry for k, running at most one flight per
// entry: admission gate, then collection. It checks ctx before the cache
// lookup, so a cancelled run stops at its next grid read, not only at its
// next collection.
func (l *Lab) entry(ctx context.Context, k GridKey) (*gridEntry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, err := workload.ByName(k.Benchmark)
	if err != nil {
		return nil, err
	}
	space, err := l.spaceOf(k)
	if err != nil {
		return nil, err
	}
	e, joined, err := l.grids.Do(ctx, k, func() (*gridEntry, error) {
		if l.span != nil {
			done := l.span(k.Benchmark, k.Space)
			defer done()
		}
		g, err := l.collectGated(ctx, l.sys, b, space)
		if err != nil {
			return nil, fmt.Errorf("experiments: collecting %s %s: %w", k.Space, k.Benchmark, err)
		}
		l.emit(k, GridCollect)
		return &gridEntry{grid: g}, nil
	})
	if err != nil {
		return nil, err
	}
	if joined {
		l.emit(k, GridHit)
	}
	return e, nil
}

// collectGated runs one collection on sys behind the admission gate with
// the lab's worker bound and progress hook. Every collection the lab or
// an experiment runs goes through it.
func (l *Lab) collectGated(ctx context.Context, sys *sim.System, b workload.Benchmark, space *freq.Space) (*trace.Grid, error) {
	if l.gate != nil {
		release, err := l.gate(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	return l.collect(ctx, sys, b, space, trace.CollectOptions{Workers: l.workers, OnProgress: l.progress})
}

// CollectWorkload collects an inline workload's grid in the named space
// ("" means coarse) without caching it: the same admission gate, worker
// bound and progress hook as a cached collection, but no grid event.
// Errors come back unwrapped, so callers can match the gate's and the
// context's sentinels.
func (l *Lab) CollectWorkload(ctx context.Context, b workload.Benchmark, space string) (*trace.Grid, error) {
	k, err := l.Key(b.Name, space)
	if err != nil {
		return nil, err
	}
	return l.collectGated(ctx, l.sys, b, l.spaces[k.Space].space)
}

func (l *Lab) emit(k GridKey, kind GridEventKind) {
	if l.observer != nil {
		l.observer(GridEvent{Benchmark: k.Benchmark, Space: k.Space, Kind: kind})
	}
}

// Forget drops every cached artifact for a benchmark — coarse and fine
// grids plus their analyses — so the next request recollects. In-flight
// collections are unaffected: their waiters still get the result, it just
// is not retained. It reports whether anything was cached.
func (l *Lab) Forget(bench string) bool {
	dropped := l.grids.Remove(l.key(bench, "coarse"))
	return l.grids.Remove(l.key(bench, "fine")) || dropped
}

// ResidentGrids returns how many grids the cache holds, running flights
// included.
func (l *Lab) ResidentGrids() int { return l.grids.Len() }
