// Package sim is the system simulator: it combines the CPU timing/power
// model, the memory-controller latency model, and the DRAM energy model to
// produce the per-sample measurements the paper collects from gem5 — time,
// CPU energy, memory energy, CPI, and MPKI for every (CPU frequency, memory
// frequency) setting.
//
// # Performance model
//
// For a sample of N instructions with base CPI c, MPKI m, row-hit rate h,
// and memory-level parallelism p, executed at CPU frequency fc and memory
// frequency fm:
//
//	computeTime = N·c / rate(fc)
//	stallTime   = M·L(fm, load) / p,  M = N·m/1000
//
// where L is the controller's average access latency under the offered
// load. Because the offered load itself depends on execution time, the
// solver iterates to a fixed point (with damping), then applies the
// bandwidth bound: execution time can never be less than the time the bus
// needs to move M bursts.
//
// This reproduces the first-order interaction the paper studies: raising
// CPU frequency inflates the *cycle* cost of memory stalls, raising memory
// frequency shrinks burst time and queueing, and the benefit of each knob
// depends on the workload's CPU/memory mix.
//
// # Engine layers
//
// The hot path is the columnar batch engine (Runner, batch.go): grid
// collection ingests the realized workload once into per-sample input
// records and solves whole setting-columns with every per-setting
// invariant hoisted, optionally warm-starting each cell's fixed point from
// the neighboring operating point. One kernel, solveColumn, solves a
// column breadth-first, one damped step per unconverged cell per pass,
// with the step written out in its loop body, so the float divisions of
// independent cells overlap and no cell makes a call on any pass. A cell
// passes through startCell (inputs and start iterate), solveColumn and
// finish (activity, energy, and the three noise factors from one
// rng.LogNorm3 draw). Runner.Solve runs them on a whole column and
// finishes its cells after the passes; SimulateSample, the single-cell
// path for governors, the daemon, and experiments, runs them on a one-cell
// column. The pre-columnar scalar implementation is retained verbatim
// (reference.go) as the oracle for the differential test suite.
package sim

import (
	"fmt"
	"math"

	"mcdvfs/internal/cpupower"
	"mcdvfs/internal/dram"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/memctrl"
	"mcdvfs/internal/rng"
	"mcdvfs/internal/workload"
)

// Config assembles a system.
type Config struct {
	CPUPower cpupower.Params
	Device   dram.Device
	// MeasurementNoise is the log-scale sigma of multiplicative noise
	// applied to each measured time and energy, modeling the run-to-run
	// simulation noise the paper filters with its 0.5% speedup tie band.
	// Noise is deterministic in (sample, setting), so repeated collections
	// are identical. Zero disables it.
	MeasurementNoise float64
	// CPIFactor scales every workload's base CPI, modeling a weaker
	// microarchitecture (e.g. a LITTLE companion core executes the same
	// instructions at higher CPI). Zero means 1.0 (no scaling).
	CPIFactor float64
}

// DefaultConfig returns the calibrated platform emulating the paper's
// system (A15-class core, LPDDR3 single-channel memory).
func DefaultConfig() Config {
	return Config{
		CPUPower:         cpupower.DefaultParams(),
		Device:           dram.DefaultDevice(),
		MeasurementNoise: 0.01,
	}
}

// NoiselessConfig is DefaultConfig without measurement noise, for property
// tests and analyses that need exact model behaviour.
func NoiselessConfig() Config {
	cfg := DefaultConfig()
	cfg.MeasurementNoise = 0
	return cfg
}

// System simulates one platform. It is safe for concurrent use: all state
// is immutable after construction. New holds cpiFactor within [0.1, 10],
// and a validated device moves at least one burst per line.
type System struct {
	cpu        *cpupower.Model
	mem        *dram.EnergyModel
	ctrl       *memctrl.Model
	noise      float64
	cpiFactor  float64
	lineBursts float64 // bursts per cache-line access, cached for counts
}

// New builds a System from cfg.
func New(cfg Config) (*System, error) {
	cpu, err := cpupower.New(cfg.CPUPower)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	mem, err := dram.NewEnergyModel(cfg.Device)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	ctrl, err := memctrl.New(cfg.Device)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.MeasurementNoise < 0 || cfg.MeasurementNoise > 0.2 {
		return nil, fmt.Errorf("sim: measurement noise %v outside [0, 0.2]", cfg.MeasurementNoise)
	}
	cpiFactor := cfg.CPIFactor
	if cpiFactor == 0 {
		cpiFactor = 1
	}
	if cpiFactor < 0.1 || cpiFactor > 10 {
		return nil, fmt.Errorf("sim: CPI factor %v outside [0.1, 10]", cfg.CPIFactor)
	}
	return &System{
		cpu:        cpu,
		mem:        mem,
		ctrl:       ctrl,
		noise:      cfg.MeasurementNoise,
		cpiFactor:  cpiFactor,
		lineBursts: float64(mem.Device().LineBursts()),
	}, nil
}

// MustNew is New for static configuration; it panics on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Sample is one simulated measurement: the same quantities the paper
// collects from gem5 every 10 million user-mode instructions.
type Sample struct {
	Instructions uint64
	TimeNS       float64
	CPUEnergyJ   float64
	MemEnergyJ   float64
	// CPI is the achieved cycles per instruction at the CPU clock,
	// including exposed memory stall cycles.
	CPI float64
	// MPKI is the realized DRAM accesses per thousand instructions.
	MPKI float64
	// Activity is the fraction of time the core computed (vs stalled).
	Activity float64
	// Converged reports whether the fixed-point solver met fixedPointTol
	// within fixedPointIters. An unconverged sample carries the last
	// iterate — finite, but up to the damping oscillation away from the
	// true fixed point — and is counted by the collection engine.
	Converged bool
}

// EnergyJ returns total sample energy.
func (s Sample) EnergyJ() float64 { return s.CPUEnergyJ + s.MemEnergyJ }

const (
	fixedPointIters = 50
	fixedPointTol   = 1e-9 // relative change per iteration
)

// coldStart is the seedNS sentinel selecting the unloaded-latency cold
// start; any non-negative seed selects a warm start from that time.
const coldStart = -1.0

// settingConsts packs every per-setting invariant of the simulation: the
// hoisted latency, CPU-power, and DRAM-energy coefficients plus the clock
// rate and the setting's contribution to the noise hash. Deriving it once
// per setting-column is what makes the batch engine fast — the fixed-point
// steps then run on a handful of float64s per cell. consts builds one only
// for a setting every component model accepts, so cyclesPerNS is positive.
type settingConsts struct {
	st          freq.Setting
	cyclesPerNS float64
	lat         memctrl.Coeffs
	cpu         cpupower.Coeffs
	mem         dram.EnergyCoeffs
	noiseHash   uint64 // setting half of the noise-stream hash
}

// consts validates the setting against every component model and hoists the
// per-setting invariants.
func (s *System) consts(st freq.Setting) (settingConsts, error) {
	lat, err := s.ctrl.CoeffsAt(st.Mem)
	if err != nil {
		return settingConsts{}, fmt.Errorf("sim: %w", err)
	}
	cpuC, err := s.cpu.CoeffsAt(st.CPU)
	if err != nil {
		return settingConsts{}, fmt.Errorf("sim: %w", err)
	}
	memC, err := s.mem.CoeffsAt(st.Mem)
	if err != nil {
		return settingConsts{}, fmt.Errorf("sim: %w", err)
	}
	return settingConsts{
		st:          st,
		cyclesPerNS: st.CPU.CyclesPerNS(),
		lat:         lat,
		cpu:         cpuC,
		mem:         memC,
		noiseHash:   settingNoiseHash(st),
	}, nil
}

// validateSpec rejects the sample specs the solver cannot handle. The batch
// engine validates once per sample at Runner construction (and
// SimulateSample once per call) so the per-iteration loop is check-free.
func validateSpec(spec workload.SampleSpec) error {
	switch {
	case spec.Instructions == 0:
		return fmt.Errorf("sim: sample with zero instructions")
	case !(spec.BaseCPI > 0) || math.IsInf(spec.BaseCPI, 0) || !(spec.MLP >= 1) || math.IsInf(spec.MLP, 0):
		return fmt.Errorf("sim: non-physical sample spec %+v", spec)
	case !(spec.MPKI >= 0) || math.IsInf(spec.MPKI, 0):
		return fmt.Errorf("sim: non-physical MPKI %v", spec.MPKI)
	case math.IsNaN(spec.RowHitRate) || spec.RowHitRate < 0 || spec.RowHitRate > 1:
		return fmt.Errorf("sim: row hit rate %v outside [0,1]", spec.RowHitRate)
	case math.IsNaN(spec.WriteFrac) || spec.WriteFrac < 0 || spec.WriteFrac > 1:
		return fmt.Errorf("sim: write fraction %v outside [0,1]", spec.WriteFrac)
	}
	return nil
}

// SimulateSample produces the measurement for one workload sample at one
// setting. It solves a one-cell column, kept on the stack, through the same
// startCell, solveColumn and finish the batch engine runs; sweeping many
// samples or settings is much faster through Runner.
func (s *System) SimulateSample(spec workload.SampleSpec, st freq.Setting) (Sample, error) {
	if err := validateSpec(spec); err != nil {
		return Sample{}, err
	}
	c, err := s.consts(st)
	if err != nil {
		return Sample{}, err
	}
	in := s.ingest(spec)
	cells := [1]cellSolve{startCell(&c, &in, coldStart)}
	active := [1]int{0}
	_, live := solveColumn(&c.lat, cells[:], active[:])
	return s.finish(&c, &in, &cells[0], live == 0), nil
}

// sampleIn is one validated sample's setting-independent inputs, derived
// once by ingest so a sweep pays for them per sample rather than per cell.
type sampleIn struct {
	instructions uint64
	mpki         float64
	instr        float64     // float64(instructions)
	accesses     float64     // instr·MPKI/1000
	cpiNum       float64     // instr·BaseCPI·cpiFactor — the computeNS numerator
	mlp          float64     // memory-level parallelism
	rowHit       float64     // row-buffer hit rate
	writeFrac    float64     // share of accesses that write
	counts       dram.Counts // DRAM event counts
	noiseH       uint64      // sample half of the noise-stream hash
}

// ingest derives a validated spec's setting-independent inputs.
func (s *System) ingest(spec workload.SampleSpec) sampleIn {
	n := float64(spec.Instructions)
	accesses := n * spec.MPKI / 1000
	return sampleIn{
		instructions: spec.Instructions,
		mpki:         spec.MPKI,
		instr:        n,
		accesses:     accesses,
		// Same association order as the scalar reference:
		// ((n·BaseCPI)·cpiFactor), divided by the clock rate per cell.
		cpiNum:    n * spec.BaseCPI * s.cpiFactor,
		mlp:       spec.MLP,
		rowHit:    spec.RowHitRate,
		writeFrac: spec.WriteFrac,
		// Counts are in data bursts: each cache-line access moves
		// LineBursts bursts; activates happen once per row miss.
		counts: dram.Counts{
			Reads:     dram.RoundCount(accesses * (1 - spec.WriteFrac) * s.lineBursts),
			Writes:    dram.RoundCount(accesses * spec.WriteFrac * s.lineBursts),
			Activates: dram.RoundCount(accesses * (1 - spec.RowHitRate)),
		},
		noiseH: sampleNoiseHash(spec),
	}
}

// cellSolve is one cell's fixed-point state: the inputs of the damped step
// at one setting, hoisted once per cell by startCell, and the current
// iterate t. Once the cell is solved, t is its pre-noise execution time,
// which the batch engine keeps as the warm seed for the same sample at the
// next setting of a chain. Every field is non-negative and mlp is at least
// 1: startCell builds the cell from a validated sample, and solveColumn
// never moves t below the bandwidth bound.
type cellSolve struct {
	computeNS float64 // compute time at the CPU clock
	accesses  float64 // memory accesses
	mlp       float64 // memory-level parallelism
	coreNS    float64 // unloaded (core service) latency per access
	serviceNS float64 // contended service time of the queueing term
	bwBoundNS float64 // bandwidth bound: the least time the bus needs
	t         float64 // current iterate
}

// startCell hoists one cell's solve inputs and its start iterate. seedNS
// selects the start: coldStart begins from the unloaded latency (zero
// offered load makes the queueing term vanish, so the unloaded latency is
// exactly the core service time); a non-negative seed begins from that
// time, the warm start the batch engine feeds from the neighboring
// operating point. Either start is clamped below by the bandwidth bound.
// Callers hold a spec that passed validateSpec (the batch engine validates
// at Runner construction, SimulateSample per call), so cpiNum is positive,
// accesses non-negative, mlp at least 1, and rowHit and writeFrac in [0, 1].
func startCell(c *settingConsts, in *sampleIn, seedNS float64) cellSolve {
	cs := cellSolve{
		computeNS: in.cpiNum / c.cyclesPerNS,
		accesses:  in.accesses,
		mlp:       in.mlp,
		coreNS:    c.lat.CoreServiceNS(in.rowHit),
		serviceNS: c.lat.ServiceNS(in.writeFrac),
		bwBoundNS: c.lat.MinServiceTimeNS(in.accesses),
	}
	cs.t = seedNS
	if seedNS < 0 {
		cs.t = cs.computeNS + cs.accesses*cs.coreNS/cs.mlp
	}
	if cs.t < cs.bwBoundNS {
		cs.t = cs.bwBoundNS
	}
	return cs
}

// solveColumn is the damped fixed-point iteration on execution time, for
// every cell that active lists. Each pass advances each listed cell by one
// damped step and compacts active in place to the cells that did not meet
// fixedPointTol on it, keeping their order. It stops when active is empty
// or after fixedPointIters passes, and returns the steps taken and live,
// the number of cells still listed: active[:live] are the unconverged
// cells, each holding its last iterate. The step is written out in the
// loop body (memctrl's QueueNS inlines), so no cell makes a call on any
// pass, and it mirrors the retained scalar reference (reference.go)
// operation for operation, so identical seeds produce bit-identical
// iterates.
func solveColumn(lat *memctrl.Coeffs, cells []cellSolve, active []int) (iters uint64, live int) {
	live = len(active)
	for pass := 0; pass < fixedPointIters && live > 0; pass++ {
		iters += uint64(live)
		n := 0
		for _, i := range active[:live] {
			cs := &cells[i]
			t := cs.t
			accessPerNS := 0.0
			if t > 0 {
				accessPerNS = cs.accesses / t
			}
			latNS := cs.coreNS + lat.QueueNS(accessPerNS, cs.serviceNS)
			next := cs.computeNS + cs.accesses*latNS/cs.mlp
			if next < cs.bwBoundNS {
				next = cs.bwBoundNS
			}
			// Damp to guarantee convergence of the negative-feedback loop.
			next = (next + t) / 2
			cs.t = next
			if math.Abs(next-t) <= fixedPointTol*t {
				continue
			}
			active[n] = i
			n++
		}
		live = n
	}
	return iters, live
}

// finish turns a solved cell into its measurement: the activity share, CPU
// and DRAM energy over the solved time, then the deterministic measurement
// noise on time and both energies.
func (s *System) finish(c *settingConsts, in *sampleIn, cs *cellSolve, converged bool) Sample {
	t := cs.t
	activity := 1.0
	if t > 0 {
		activity = cs.computeNS / t
	}
	if activity > 1 {
		activity = 1
	}

	cpuE := c.cpu.EnergyJ(activity, t)
	memE := c.mem.EnergyJ(in.counts, t)

	if s.noise > 0 {
		ft, fcpu, fmem := rng.LogNorm3(in.noiseH^c.noiseHash, s.noise)
		t *= ft
		cpuE *= fcpu
		memE *= fmem
	}

	return Sample{
		Instructions: in.instructions,
		TimeNS:       t,
		CPUEnergyJ:   cpuE,
		MemEnergyJ:   memE,
		CPI:          t * c.cyclesPerNS / in.instr,
		MPKI:         in.mpki,
		Activity:     activity,
		Converged:    converged,
	}
}

// sampleNoiseHash is the sample half of the noise-stream hash; XORed with
// settingNoiseHash it reproduces the scalar reference's noiseSource seed
// exactly, so identical collections see identical noise while distinct
// samples, benchmarks, and settings see independent draws.
func sampleNoiseHash(spec workload.SampleSpec) uint64 {
	return uint64(spec.Index)*0x9e3779b97f4a7c15 ^
		math.Float64bits(spec.BaseCPI)*0xbf58476d1ce4e5b9 ^
		math.Float64bits(spec.MPKI)*0x94d049bb133111eb
}

// settingNoiseHash is the setting half of the noise-stream hash.
func settingNoiseHash(st freq.Setting) uint64 {
	return math.Float64bits(float64(st.CPU))*0xd6e8feb86659fd93 ^
		math.Float64bits(float64(st.Mem))*0xa5a5a5a5a5a5a5a5
}
