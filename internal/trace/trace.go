// Package trace collects and stores characterization grids: the per-sample,
// per-setting measurement matrices on which all of the paper's analyses
// operate.
//
// The paper runs each benchmark once per (CPU, memory) frequency pair — 70
// gem5 simulations for the coarse grid, 496 for the fine one — and samples
// performance and energy every 10 million user-mode instructions. Collect
// performs the equivalent sweep against the mcdvfs simulator, producing a
// Grid indexed [sample][setting].
package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/workload"
)

// Measurement is one cell of the grid: what the platform's counters report
// for one sample at one setting.
type Measurement struct {
	TimeNS     float64 `json:"time_ns"`
	CPUEnergyJ float64 `json:"cpu_energy_j"`
	MemEnergyJ float64 `json:"mem_energy_j"`
	CPI        float64 `json:"cpi"`
	MPKI       float64 `json:"mpki"`
}

// EnergyJ returns the total (CPU + memory) energy of the measurement.
func (m Measurement) EnergyJ() float64 { return m.CPUEnergyJ + m.MemEnergyJ }

// Grid is a complete characterization of one benchmark over a setting
// space: Data[s][k] is the measurement for sample s at setting k, with k a
// freq.SettingID into Settings.
type Grid struct {
	Benchmark   string          `json:"benchmark"`
	SampleInstr uint64          `json:"sample_instructions"`
	Settings    []freq.Setting  `json:"settings"`
	Data        [][]Measurement `json:"data"`
	// ConvergenceFailures counts cells whose fixed-point solve exhausted its
	// iteration budget without meeting tolerance. Those cells carry the last
	// iterate rather than the true fixed point; a non-zero count means the
	// grid should be treated as approximate. Zero is omitted from JSON so
	// grids serialized by earlier versions round-trip unchanged.
	ConvergenceFailures uint64 `json:"convergence_failures,omitempty"`
}

// NumSamples returns the number of samples in the grid.
func (g *Grid) NumSamples() int { return len(g.Data) }

// NumSettings returns the number of settings in the grid.
func (g *Grid) NumSettings() int { return len(g.Settings) }

// At returns the measurement for sample s at setting k.
func (g *Grid) At(s int, k freq.SettingID) Measurement { return g.Data[s][int(k)] }

// Setting returns the setting with ID k.
func (g *Grid) Setting(k freq.SettingID) freq.Setting { return g.Settings[int(k)] }

// Validate checks structural consistency and physical sanity.
func (g *Grid) Validate() error {
	if g.Benchmark == "" {
		return fmt.Errorf("trace: grid missing benchmark name")
	}
	if g.SampleInstr == 0 {
		return fmt.Errorf("trace: grid missing sample length")
	}
	if len(g.Settings) == 0 {
		return fmt.Errorf("trace: grid has no settings")
	}
	if len(g.Data) == 0 {
		return fmt.Errorf("trace: grid has no samples")
	}
	for s, row := range g.Data {
		if len(row) != len(g.Settings) {
			return fmt.Errorf("trace: sample %d has %d cells, want %d", s, len(row), len(g.Settings))
		}
		for k, m := range row {
			if m.TimeNS <= 0 || m.CPUEnergyJ < 0 || m.MemEnergyJ < 0 {
				return fmt.Errorf("trace: sample %d setting %d non-physical: %+v", s, k, m)
			}
		}
	}
	return nil
}

// TotalTimeNS returns the end-to-end execution time at a fixed setting.
func (g *Grid) TotalTimeNS(k freq.SettingID) float64 {
	sum := 0.0
	for s := range g.Data {
		sum += g.Data[s][int(k)].TimeNS
	}
	return sum
}

// TotalEnergyJ returns the end-to-end energy at a fixed setting.
func (g *Grid) TotalEnergyJ(k freq.SettingID) float64 {
	sum := 0.0
	for s := range g.Data {
		sum += g.Data[s][int(k)].EnergyJ()
	}
	return sum
}

// EminSetting returns the pinned setting that runs the whole benchmark on
// the least energy, and that energy: the whole-run Emin reference. Ties go
// to the lowest ID.
func (g *Grid) EminSetting() (freq.SettingID, float64) {
	best, emin := freq.SettingID(0), math.Inf(1)
	for k := range g.Settings {
		if e := g.TotalEnergyJ(freq.SettingID(k)); e < emin {
			best, emin = freq.SettingID(k), e
		}
	}
	return best, emin
}

// CollectOptions tunes the collection engine. The zero value selects the
// defaults, so callers can pass CollectOptions{} for the standard sweep.
type CollectOptions struct {
	// Workers bounds the worker pool. Zero (or negative) means GOMAXPROCS;
	// the pool is additionally capped at the number of CPU-frequency chains,
	// since a worker's unit of work is one chain (every memory step at one
	// CPU step, solved in order so warm starts flow down the chain).
	Workers int
	// OnProgress, when non-nil, is invoked after each setting column
	// completes with the number of finished columns and the space size. It
	// is called from worker goroutines and must be safe for concurrent use;
	// long-running services use it to export collection progress.
	OnProgress func(done, total int)
}

// workers resolves the effective pool size for a space with the given
// number of schedulable chains.
func (o CollectOptions) workers(chains int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > chains {
		w = chains
	}
	return w
}

// Collect sweeps the benchmark across every setting in the space,
// simulating each sample at each setting. Settings are simulated in
// parallel across the machine's cores; use CollectContext for
// cancellation or an explicit worker count.
func Collect(sys *sim.System, bench workload.Benchmark, space *freq.Space) (*Grid, error) {
	return CollectContext(context.Background(), sys, bench, space, CollectOptions{})
}

// CollectContext is Collect with cancellation and tuning. It runs the sweep
// through the columnar batch engine (sim.Runner): the space is decomposed
// into CPU-frequency chains — one chain is every memory step at one CPU
// step, in ladder order — and chains are fanned out over a bounded worker
// pool, each worker owning one Runner whose arenas are reused across every
// column it solves.
//
// Within a chain, columns are solved in descending memory order and each
// column after the first warm-starts its fixed-point solves from the
// previous (faster) memory step's converged times. Warm starts are not a
// saving: over every chain of the 18 built-in benchmarks they take 11.1%
// more fixed-point iterations than cold starts on the coarse space and
// 6.5% more on the fine one. They stay because the grid's bits depend on
// them. Because the seed chain restarts at every chain boundary and chains
// never share state, the grid is byte-identical to a serial (Workers: 1)
// sweep at any pool size — and, since warm and cold starts converge to the
// same fixed point within solver tolerance, equal to the per-cell scalar
// reference within that tolerance (bit-identical when cold-started; see
// the simdiff suite).
//
// The first simulation error cancels the remaining work and is returned.
// If ctx is cancelled mid-sweep, workers stop at the next column boundary
// and CollectContext returns ctx's error; no partially filled grid is ever
// returned.
func CollectContext(ctx context.Context, sys *sim.System, bench workload.Benchmark, space *freq.Space, opts CollectOptions) (*Grid, error) {
	specs, err := bench.Realize()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	g := &Grid{
		Benchmark:   bench.Name,
		SampleInstr: workload.SampleLen,
		Settings:    append([]freq.Setting(nil), space.Settings()...),
		Data:        make([][]Measurement, len(specs)),
	}
	for s := range g.Data {
		g.Data[s] = make([]Measurement, space.Len())
	}
	// Settings are CPU-major (freq.NewSpace): setting k = ci*nm + mi.
	nc := len(space.CPULadder())
	nm := len(space.MemLadder())

	// Errgroup-style fan-out: the first failure records itself once and
	// cancels the derived context, which every worker polls at each column
	// boundary so cancellation latency is one batch solve, not one chain.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	// Buffered to the full chain count: if workers exit early on error,
	// the feeder below must never block on a channel nobody drains.
	chains := make(chan int, nc)
	var columnsDone atomic.Int64
	var convergenceFailures atomic.Uint64
	for w := 0; w < opts.workers(nc); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker builds its own Runner: the arena is not safe
			// for concurrent use.
			r, err := sim.NewRunner(sys, specs)
			if err != nil {
				fail(fmt.Errorf("trace: %w", err))
				return
			}
			defer func() { convergenceFailures.Add(r.Stats().ConvergenceFailures) }()
			for ci := range chains {
				if err := drainChain(ctx, r, g, ci, nm, &columnsDone, space.Len(), opts.OnProgress); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	for ci := 0; ci < nc; ci++ {
		chains <- ci
	}
	close(chains)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g.ConvergenceFailures = convergenceFailures.Load()
	return g, nil
}

// drainChain is one worker's unit of work, and the per-cell cost of the
// whole collection engine: it solves every memory step of one CPU chain in
// descending ladder order — warm-starting each column after the first —
// and scatters the finished columns into the grid. A cancelled ctx stops
// the chain at the next column boundary and returns nil; CollectContext
// surfaces ctx's error itself so cancellation is not mistaken for a solve
// failure.
func drainChain(ctx context.Context, r *sim.Runner, g *Grid, ci, nm int, columnsDone *atomic.Int64, total int, onProgress func(done, total int)) error {
	r.ResetSeed()
	for mi := nm - 1; mi >= 0; mi-- {
		if ctx.Err() != nil {
			return nil
		}
		k := ci*nm + mi
		st := g.Settings[k]
		col, err := r.Solve(st, mi < nm-1)
		if err != nil {
			return fmt.Errorf("trace: setting %v: %w", st, err)
		}
		for s := range col {
			g.Data[s][k] = Measurement{
				TimeNS:     col[s].TimeNS,
				CPUEnergyJ: col[s].CPUEnergyJ,
				MemEnergyJ: col[s].MemEnergyJ,
				CPI:        col[s].CPI,
				MPKI:       col[s].MPKI,
			}
		}
		if onProgress != nil {
			onProgress(int(columnsDone.Add(1)), total)
		}
	}
	return nil
}

// ReadJSON deserializes a grid and validates it.
func ReadJSON(r io.Reader) (*Grid, error) {
	var g Grid
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("trace: decoding grid: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}
