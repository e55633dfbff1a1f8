package sim

// The retained scalar reference implementation. This is the pre-columnar
// per-sample simulation loop kept verbatim — per-call validation, Model
// methods re-deriving device timings every iteration, struct-based Load —
// serving as the oracle for the differential suite (simdiff): the batch
// engine must reproduce it bit-for-bit on every built-in benchmark and
// every setting of the default spaces. It is deliberately slow; nothing in
// the product calls it.
//
// Two deviations from the historical body, both shared with the batch path
// so the comparison stays meaningful:
//
//   - seedNS: the fixed point can start from a caller-provided time
//     (seedNS >= 0) instead of the unloaded latency, mirroring the batch
//     engine's warm starts so warm columns diff bitwise too.
//   - counts use dram.RoundCount instead of the historical int(x+0.5),
//     which mis-rounds near the float53 boundary (see dram.RoundCount).

import (
	"fmt"
	"math"

	"mcdvfs/internal/dram"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/memctrl"
	"mcdvfs/internal/rng"
	"mcdvfs/internal/workload"
)

// ReferenceSimulate is the scalar-reference SimulateSample. seedNS < 0
// (coldStart) starts the fixed point from the unloaded latency; a
// non-negative seed warm-starts from that time. It returns the finished
// sample and the pre-noise converged time.
func (s *System) ReferenceSimulate(spec workload.SampleSpec, st freq.Setting, seedNS float64) (Sample, float64, error) {
	if spec.Instructions == 0 {
		return Sample{}, 0, fmt.Errorf("sim: sample with zero instructions")
	}
	if spec.BaseCPI <= 0 || spec.MLP < 1 {
		return Sample{}, 0, fmt.Errorf("sim: non-physical sample spec %+v", spec)
	}
	n := float64(spec.Instructions)
	accesses := n * spec.MPKI / 1000
	cpuCyclesPerNS := st.CPU.CyclesPerNS()
	computeNS := n * spec.BaseCPI * s.cpiFactor / cpuCyclesPerNS

	// Fixed point on execution time. Start from the unloaded latency (or
	// the caller's seed).
	load := memctrl.Load{RowHitRate: spec.RowHitRate, WriteFrac: spec.WriteFrac}
	lat0, err := s.ctrl.AvgLatencyNS(st.Mem, load)
	if err != nil {
		return Sample{}, 0, fmt.Errorf("sim: %w", err)
	}
	bwBound, err := s.ctrl.MinServiceTimeNS(st.Mem, accesses)
	if err != nil {
		return Sample{}, 0, fmt.Errorf("sim: %w", err)
	}
	t := seedNS
	if seedNS < 0 {
		t = computeNS + accesses*lat0/spec.MLP
	}
	if t < bwBound {
		t = bwBound
	}
	converged := false
	for i := 0; i < fixedPointIters; i++ {
		load.AccessPerNS = 0
		if t > 0 {
			load.AccessPerNS = accesses / t
		}
		lat, err := s.ctrl.AvgLatencyNS(st.Mem, load)
		if err != nil {
			return Sample{}, 0, fmt.Errorf("sim: %w", err)
		}
		next := computeNS + accesses*lat/spec.MLP
		if next < bwBound {
			next = bwBound
		}
		// Damp to guarantee convergence of the negative-feedback loop.
		next = (next + t) / 2
		if math.Abs(next-t) <= fixedPointTol*t {
			t = next
			converged = true
			break
		}
		t = next
	}
	solvedNS := t

	activity := 1.0
	if t > 0 {
		activity = computeNS / t
	}
	if activity > 1 {
		activity = 1
	}

	cpuE, err := s.cpu.Energy(st.CPU, activity, t)
	if err != nil {
		return Sample{}, 0, fmt.Errorf("sim: %w", err)
	}
	// Counts are in data bursts: each cache-line access moves LineBursts
	// bursts; activates happen once per row miss.
	lineBursts := float64(s.mem.Device().LineBursts())
	counts := dram.Counts{
		Reads:     dram.RoundCount(accesses * (1 - spec.WriteFrac) * lineBursts),
		Writes:    dram.RoundCount(accesses * spec.WriteFrac * lineBursts),
		Activates: dram.RoundCount(accesses * (1 - spec.RowHitRate)),
	}
	memE, err := s.mem.Energy(st.Mem, counts, t)
	if err != nil {
		return Sample{}, 0, fmt.Errorf("sim: %w", err)
	}

	if s.noise > 0 {
		src := noiseSource(spec, st)
		t *= src.LogNormFactor(s.noise)
		cpuE *= src.LogNormFactor(s.noise)
		memE *= src.LogNormFactor(s.noise)
	}

	return Sample{
		Instructions: spec.Instructions,
		TimeNS:       t,
		CPUEnergyJ:   cpuE,
		MemEnergyJ:   memE,
		CPI:          t * cpuCyclesPerNS / n,
		MPKI:         spec.MPKI,
		Activity:     activity,
		Converged:    converged,
	}, solvedNS, nil
}

// noiseSource derives the reference's noise stream from the sample's
// realized characteristics and the setting. The batch engine splits the
// same hash into sample and setting halves (sampleNoiseHash XOR
// settingNoiseHash); XOR associativity makes the seeds identical.
func noiseSource(spec workload.SampleSpec, st freq.Setting) *rng.Source {
	h := uint64(spec.Index)*0x9e3779b97f4a7c15 ^
		math.Float64bits(spec.BaseCPI)*0xbf58476d1ce4e5b9 ^
		math.Float64bits(spec.MPKI)*0x94d049bb133111eb ^
		math.Float64bits(float64(st.CPU))*0xd6e8feb86659fd93 ^
		math.Float64bits(float64(st.Mem))*0xa5a5a5a5a5a5a5a5
	return rng.New(h)
}

// ReferenceRun is ReferenceSimulate over a whole realized workload at one
// setting, cold-starting every sample — the scalar oracle that
// BenchmarkCollectReference times against the batch engine.
func (s *System) ReferenceRun(specs []workload.SampleSpec, st freq.Setting) ([]Sample, error) {
	out := make([]Sample, len(specs))
	for i, spec := range specs {
		smp, _, err := s.ReferenceSimulate(spec, st, coldStart)
		if err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		out[i] = smp
	}
	return out, nil
}
