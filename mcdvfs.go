// Package mcdvfs is a reproduction of "Energy-Performance Trade-offs on
// Energy-Constrained Devices with Multi-Component DVFS" (Begum et al.,
// IISWC 2015) as a Go library.
//
// The package is the public façade over the internal implementation. It
// exposes:
//
//   - the simulated platform (an A15-class CPU with DVFS plus an LPDDR3
//     memory with DFS) and its characterization grids,
//   - the paper's contribution: the inefficiency metric, optimal-setting
//     selection under inefficiency budgets, performance clusters, stable
//     regions, and trade-off evaluation with tuning overhead,
//   - online governors built on those ideas, and
//   - runnable experiments regenerating every figure of the paper's
//     evaluation.
//
// A minimal session:
//
//	grid, err := mcdvfs.Collect("gobmk", mcdvfs.CoarseSpace())
//	a, err := mcdvfs.Analyze(grid)
//	best, err := a.OptimalSetting(0, 1.3) // sample 0, inefficiency budget 1.3
//	regions, err := a.StableRegions(1.3, 0.05)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every figure.
package mcdvfs

import (
	"context"
	"io"

	"mcdvfs/internal/core"
	"mcdvfs/internal/experiments"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/governor"
	"mcdvfs/internal/profile"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

// Re-exported core types. These aliases are the public names; the internal
// packages carry the implementations and their documentation.
type (
	// MHz is a clock frequency in megahertz.
	MHz = freq.MHz
	// Setting is one joint (CPU, memory) frequency choice.
	Setting = freq.Setting
	// SettingID indexes a Setting within a Space.
	SettingID = freq.SettingID
	// Space is an enumerated set of settings.
	Space = freq.Space
	// Grid is a per-sample, per-setting measurement matrix.
	Grid = trace.Grid
	// Measurement is one grid cell.
	Measurement = trace.Measurement
	// Analysis precomputes inefficiency and speedup over a grid and hosts
	// the paper's algorithms.
	Analysis = core.Analysis
	// Cluster is a per-sample performance cluster.
	Cluster = core.Cluster
	// Region is a stable region.
	Region = core.Region
	// Schedule assigns a setting to every sample.
	Schedule = core.Schedule
	// Overhead models tuning cost (search + transition).
	Overhead = core.Overhead
	// Tradeoff is a Figure 11-style comparison result.
	Tradeoff = core.Tradeoff
	// Benchmark is a synthetic workload description.
	Benchmark = workload.Benchmark
	// System is the simulated platform.
	System = sim.System
	// SystemConfig configures the simulated platform.
	SystemConfig = sim.Config
	// Lab caches grids and runs experiments.
	Lab = experiments.Lab
	// LabOption configures a Lab at construction.
	LabOption = experiments.Option
	// CollectOptions tunes grid collection (worker-pool size).
	CollectOptions = trace.CollectOptions
	// Governor is an online frequency governor.
	Governor = governor.Governor
	// GovernorResult summarizes an online governor run.
	GovernorResult = governor.Result
	// GovernorOverhead models per-search and per-transition governor cost.
	GovernorOverhead = governor.Overhead
	// BudgetGovernorConfig configures the inefficiency-budget governor.
	BudgetGovernorConfig = governor.BudgetConfig
	// GovernorModel predicts candidate-setting behaviour for governors.
	GovernorModel = governor.Model
	// SearchStart selects where a governor's tuning search begins.
	SearchStart = governor.SearchStart
)

// Search strategies for the budget governor.
const (
	// FromMax restarts every search from the full space (CoScale-style).
	FromMax = governor.FromMax
	// FromPrevious searches outward from the current setting.
	FromPrevious = governor.FromPrevious
)

// Unconstrained is the infinite inefficiency budget (the paper's "∞").
var Unconstrained = core.Unconstrained

// CoarseSpace returns the paper's 70-setting space (100 MHz steps).
func CoarseSpace() *Space { return freq.CoarseSpace() }

// FineSpace returns the paper's 496-setting space (30/40 MHz steps).
func FineSpace() *Space { return freq.FineSpace() }

// Benchmarks returns the names of all registered workloads.
func Benchmarks() []string { return workload.Names() }

// HeadlineBenchmarks returns the six benchmarks used throughout the
// paper's figures.
func HeadlineBenchmarks() []string { return workload.HeadlineNames() }

// BenchmarkByName returns the named workload.
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// DefaultSystemConfig returns the calibrated platform configuration.
func DefaultSystemConfig() SystemConfig { return sim.DefaultConfig() }

// NewSystem builds a simulated platform.
func NewSystem(cfg SystemConfig) (*System, error) { return sim.New(cfg) }

// Collect sweeps a benchmark across a setting space on the default
// platform, producing its characterization grid.
func Collect(benchmark string, space *Space) (*Grid, error) {
	return CollectContext(context.Background(), benchmark, space, CollectOptions{})
}

// CollectContext is Collect with cancellation and an explicit worker-pool
// size. The parallel sweep is byte-identical to a serial one for any
// worker count.
func CollectContext(ctx context.Context, benchmark string, space *Space, opts CollectOptions) (*Grid, error) {
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return CollectOnContext(ctx, sys, benchmark, space, opts)
}

// CollectOn is Collect against a specific platform.
func CollectOn(sys *System, benchmark string, space *Space) (*Grid, error) {
	return CollectOnContext(context.Background(), sys, benchmark, space, CollectOptions{})
}

// CollectOnContext is CollectContext against a specific platform.
func CollectOnContext(ctx context.Context, sys *System, benchmark string, space *Space, opts CollectOptions) (*Grid, error) {
	b, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	return trace.CollectContext(ctx, sys, b, space, opts)
}

// Analyze builds the inefficiency/speedup analysis for a grid.
func Analyze(g *Grid) (*Analysis, error) { return core.NewAnalysis(g) }

// ReadGridJSON deserializes and validates a characterization grid written
// with Grid.WriteJSON or served by mcdvfsd's /v1/grid. Both write exactly
// the bytes encoding/json writes for the grid, so any JSON decoder reads
// them; ReadGridJSON decodes with encoding/json and then checks the grid's
// shape and physics (Grid.Validate).
func ReadGridJSON(r io.Reader) (*Grid, error) { return trace.ReadJSON(r) }

// Profile is an offline stable-region profile (paper Section VII).
type Profile = profile.Profile

// BuildProfile profiles a characterized grid at one (budget, threshold).
func BuildProfile(g *Grid, budget, threshold float64) (*Profile, error) {
	return profile.Build(g, budget, threshold)
}

// ReadProfileJSON deserializes and validates a profile.
func ReadProfileJSON(r io.Reader) (*Profile, error) { return profile.ReadJSON(r) }

// NewProfileGovernor replays a profile at runtime with an optional drift
// fallback governor.
func NewProfileGovernor(p *Profile, fallback Governor, tolerance float64) (Governor, error) {
	return profile.NewGovernor(p, fallback, tolerance)
}

// DefaultOverhead returns the paper's measured tuning overhead
// (500 µs, 30 µJ per 70-setting tune).
func DefaultOverhead() Overhead { return core.DefaultOverhead() }

// NewLab builds an experiment lab on the default platform. Options tune
// the collection engine; a zero-option lab matches the paper's setup
// exactly.
func NewLab(opts ...LabOption) (*Lab, error) { return experiments.NewLab(opts...) }

// NewLabWithConfig builds an experiment lab on a custom platform.
func NewLabWithConfig(cfg SystemConfig, opts ...LabOption) (*Lab, error) {
	return experiments.NewLabWithConfig(cfg, opts...)
}

// WithWorkers bounds a Lab's collection worker pool; zero or negative
// selects GOMAXPROCS.
func WithWorkers(n int) LabOption { return experiments.WithWorkers(n) }

// NewPerformanceGovernor pins the space's maximum setting.
func NewPerformanceGovernor(space *Space) Governor { return governor.NewPerformance(space) }

// NewPowersaveGovernor pins the space's minimum setting.
func NewPowersaveGovernor(space *Space) Governor { return governor.NewPowersave(space) }

// NewUserspaceGovernor pins an arbitrary fixed setting.
func NewUserspaceGovernor(st Setting) Governor { return governor.NewUserspace(st) }

// NewOnDemandGovernor builds the Linux-ondemand-style utilization governor
// extended to both components — the load-following baseline with no energy
// awareness.
func NewOnDemandGovernor(space *Space) (Governor, error) { return governor.NewOnDemand(space) }

// NewRateLimiterGovernor builds the absolute-energy rate-limiting baseline
// (paper Section II) with a fixed per-interval energy allowance in joules.
func NewRateLimiterGovernor(space *Space, allowanceJ float64) (Governor, error) {
	return governor.NewRateLimiter(space, allowanceJ)
}

// NewEDPGovernor builds the energy-delay-product baseline minimizing
// E·Dⁿ each interval.
func NewEDPGovernor(space *Space, model GovernorModel, exponent float64) (Governor, error) {
	return governor.NewEDP(space, model, exponent)
}

// NewBudgetGovernor builds the paper-inspired inefficiency-budget cluster
// governor.
func NewBudgetGovernor(cfg BudgetGovernorConfig) (Governor, error) {
	return governor.NewBudget(cfg)
}

// NewGovernorModel returns the perfect-model candidate predictor backed by
// the noiseless default platform.
func NewGovernorModel() (GovernorModel, error) { return governor.NewSimModel(sim.DefaultConfig()) }

// DefaultGovernorOverhead reproduces the paper's 500 µs / 30 µJ full-tune
// cost split into per-setting and per-transition components.
func DefaultGovernorOverhead() GovernorOverhead { return governor.DefaultOverhead() }

// RunGovernor drives a governor through a benchmark on the given platform.
func RunGovernor(sys *System, benchmark string, gov Governor, oh GovernorOverhead) (GovernorResult, error) {
	b, err := workload.ByName(benchmark)
	if err != nil {
		return GovernorResult{}, err
	}
	specs, err := b.Realize()
	if err != nil {
		return GovernorResult{}, err
	}
	return governor.Run(sys, specs, gov, oh)
}

// Experiment is one runnable paper figure: Run(ctx, lab, w) regenerates
// it on lab, writing its tables to w, and returns ctx's error if ctx ends
// while it collects a grid.
type Experiment = experiments.Runner

// Experiments lists every figure runner (fig2..fig12 plus the governor
// comparison) in paper order.
func Experiments() []Experiment { return experiments.Runners() }

// ExperimentByID returns one experiment runner.
func ExperimentByID(id string) (Experiment, error) { return experiments.RunnerByID(id) }
