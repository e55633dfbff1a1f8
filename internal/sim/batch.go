package sim

// The columnar batch engine. Grid collection is the product's dominant
// cost: every figure and every daemon request ultimately sweeps a realized
// workload across a (CPU × memory) setting space, and the scalar path pays
// per-call validation, model re-derivation, and struct traffic for every
// cell. A Runner instead ingests the realized specs once into per-sample
// input records (System.ingest), hoists every per-setting invariant via
// System.consts, and solves whole setting-columns in a check-free loop,
// reusing its arenas across columns so a full grid performs O(1)
// allocations per column.
//
// A column is solved by one kernel, solveColumn. startCell hoists every
// cell's solve inputs and start iterate into the cell arena; then each
// pass advances every cell that has not yet converged by exactly one damped
// step and compacts the list of the rest in place; after the last pass,
// finish turns every cell into its measurement in sample order. Each step
// is a serial chain of three float divisions, so stepping one cell to
// convergence before starting the next leaves the core waiting on its
// divider; stepping independent cells in turn lets the out-of-order core
// overlap their divisions, and writing the step out in the kernel's loop
// body keeps a call off every cell's every pass. SimulateSample runs the
// same kernel on a one-cell column, which is the depth-first solve. Every
// cell performs the same float operations in the same order either way, so
// a column is bit-identical to per-cell SimulateSample calls, and so are
// the per-cell iteration counts.
//
// Adjacent operating points share the workload trace, so the Runner can
// seed each cell's fixed-point iteration from the time the same sample
// converged to at the previously solved setting (Solve with warm=true)
// instead of the unloaded-latency cold start. Warm starts reach the same
// fixed point within fixedPointTol (pinned by property tests); callers that
// need bit-identical agreement with SimulateSample use cold starts.

import (
	"fmt"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/workload"
)

// Runner solves one realized workload across many settings through the
// columnar batch path. It is NOT safe for concurrent use: each collection
// worker owns its own Runner (the arenas are the point). The System behind
// it may be shared freely.
type Runner struct {
	sys *System
	in  []sampleIn // per-sample inputs, fixed at construction

	// cells is the column arena, one cell per sample. Between Solves,
	// cells[i].t is the pre-noise time sample i solved to at the last
	// setting, the warm-start seed for the next.
	cells     []cellSolve
	seedValid bool
	// active lists the cells still iterating during a Solve's passes.
	active []int

	// samples is the output arena; Solve returns it, overwritten per call.
	samples []Sample

	stats RunnerStats
}

// RunnerStats counts solver work across a Runner's lifetime.
type RunnerStats struct {
	// Iterations is the total number of fixed-point iterations performed —
	// the measure of what warm starts cost or save.
	Iterations uint64
	// ConvergenceFailures counts cells whose iteration exhausted
	// fixedPointIters without meeting fixedPointTol. The scalar path used
	// to accept these silently; the batch engine surfaces them.
	ConvergenceFailures uint64
}

// NewRunner validates and ingests every spec once.
func NewRunner(sys *System, specs []workload.SampleSpec) (*Runner, error) {
	r := &Runner{
		sys:     sys,
		in:      make([]sampleIn, len(specs)),
		cells:   make([]cellSolve, len(specs)),
		active:  make([]int, len(specs)),
		samples: make([]Sample, len(specs)),
	}
	for i, spec := range specs {
		if err := validateSpec(spec); err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		r.in[i] = sys.ingest(spec)
	}
	return r, nil
}

// Len returns the number of samples per column.
func (r *Runner) Len() int { return len(r.in) }

// Stats returns the accumulated solver counters.
func (r *Runner) Stats() RunnerStats { return r.stats }

// ResetSeed invalidates the warm-start vector; the next Solve cold-starts
// even if called with warm=true. Collection workers call it between
// unrelated setting chains.
func (r *Runner) ResetSeed() { r.seedValid = false }

// Solve simulates every sample at st and returns the finished column. The
// returned slice is the Runner's arena: it is overwritten by the next Solve
// and must be consumed (or copied) before then.
//
// The column is solved breadth-first by solveColumn: up to
// fixedPointIters passes, each advancing every still-unconverged cell by
// one damped step (see the file comment). Every cell is then finished in
// sample order; the cells still unconverged after the last pass are the
// column's convergence failures, finished from their last iterate and
// marked Converged false.
//
// With warm=false every cell cold-starts from the unloaded latency, making
// the column bit-identical to per-cell SimulateSample calls. With warm=true
// (and a previously solved column) each cell seeds its fixed point from the
// time the same sample converged to at the previous setting — correct
// whenever consecutive calls walk a contiguous chain of operating points.
// Warm starts do not save work: walking every chain of the 18 built-in
// benchmarks as the collection engine does, they take 11.1% more
// fixed-point iterations than cold starts on the coarse space and 6.5%
// more on the fine one. The engine keeps them because its grids' bits
// depend on them (DESIGN.md §6).
func (r *Runner) Solve(st freq.Setting, warm bool) ([]Sample, error) {
	c, err := r.sys.consts(st)
	if err != nil {
		return nil, err
	}
	warm = warm && r.seedValid
	for i := range r.in {
		seedNS := coldStart
		if warm {
			seedNS = r.cells[i].t
		}
		r.cells[i] = startCell(&c, &r.in[i], seedNS)
		r.active[i] = i
	}
	iters, live := solveColumn(&c.lat, r.cells, r.active)
	for i := range r.in {
		r.samples[i] = r.sys.finish(&c, &r.in[i], &r.cells[i], true)
	}
	for _, i := range r.active[:live] {
		r.samples[i].Converged = false
	}
	r.seedValid = true
	r.stats.Iterations += iters
	r.stats.ConvergenceFailures += uint64(live)
	return r.samples, nil
}
