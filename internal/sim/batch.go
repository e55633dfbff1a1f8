package sim

// The columnar batch engine. Grid collection is the product's dominant
// cost: every figure and every daemon request ultimately sweeps a realized
// workload across a (CPU × memory) setting space, and the scalar path pays
// per-call validation, model re-derivation, and struct traffic for every
// cell. A Runner instead ingests the realized specs once into per-sample
// input records (System.ingest), hoists every per-setting invariant via
// System.consts, and solves whole setting-columns through the per-cell
// kernel (System.cell) in a check-free loop — reusing its arenas across
// columns so a full grid performs O(1) allocations per column.
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

	// solvedNS is the pre-noise converged time of the last solved column,
	// the warm-start seed vector for the next.
	solvedNS  []float64
	seedValid bool

	// samples is the output arena; Solve returns it, overwritten per call.
	samples []Sample

	stats RunnerStats
}

// RunnerStats counts solver work across a Runner's lifetime.
type RunnerStats struct {
	// Columns and Cells count Solve calls and the samples they solved.
	Columns uint64
	Cells   uint64
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
		sys:      sys,
		in:       make([]sampleIn, len(specs)),
		solvedNS: make([]float64, len(specs)),
		samples:  make([]Sample, len(specs)),
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
//
//vet:hotpath
func (r *Runner) Solve(st freq.Setting, warm bool) ([]Sample, error) {
	c, err := r.sys.consts(st)
	if err != nil {
		return nil, err
	}
	warm = warm && r.seedValid
	iters := uint64(0)
	failures := uint64(0)
	for i := range r.in {
		seedNS := coldStart
		if warm {
			seedNS = r.solvedNS[i]
		}
		smp, solvedNS, n := r.sys.cell(c, r.in[i], seedNS)
		r.solvedNS[i] = solvedNS
		iters += uint64(n)
		if !smp.Converged {
			failures++
		}
		r.samples[i] = smp
	}
	r.seedValid = true
	r.stats.Columns++
	r.stats.Cells += uint64(len(r.in))
	r.stats.Iterations += iters
	r.stats.ConvergenceFailures += failures
	return r.samples, nil
}
