package sim

// Differential and property suite for the columnar batch engine. The
// load-bearing contract: cold-started batch columns are bit-identical to
// the retained scalar reference (reference.go), warm-started columns are
// bit-identical to the seeded reference, warm starts land on the cold
// fixed point within solver tolerance, and the breadth-first passes take
// exactly the per-cell steps of the depth-first solve.

import (
	"math"
	"testing"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/workload"
)

// batchConfigs are the system variants the differential tests sweep: the
// noiseless model, the default noisy model, and a scaled-CPI (LITTLE-core)
// model, so hoisting is checked against every config knob that feeds it.
func batchConfigs() map[string]Config {
	little := NoiselessConfig()
	little.CPIFactor = 1.7
	return map[string]Config{
		"noiseless": NoiselessConfig(),
		"noisy":     DefaultConfig(),
		"littleCPI": little,
	}
}

// chainSettings returns one CPU chain of the coarse space: every memory
// step at the given CPU step, in descending ladder order — the unit of work
// whose warm-start seeding the collection engine relies on. Descending
// because a faster memory step's time seeds the next slower step from
// below: bandwidth-clamped cells then clamp straight onto their bound
// (instant convergence) instead of decaying down to it.
func chainSettings(cpu freq.MHz) []freq.Setting {
	mem := freq.CoarseSpace().MemLadder()
	sts := make([]freq.Setting, 0, len(mem))
	for mi := len(mem) - 1; mi >= 0; mi-- {
		sts = append(sts, freq.Setting{CPU: cpu, Mem: mem[mi]})
	}
	return sts
}

func TestBatchColdMatchesReferenceBitwise(t *testing.T) {
	specs := workload.MustByName("milc").MustRealize()[:40]
	for name, cfg := range batchConfigs() {
		s := MustNew(cfg)
		r, err := NewRunner(s, specs)
		if err != nil {
			t.Fatalf("%s: NewRunner: %v", name, err)
		}
		for _, st := range freq.CoarseSpace().Settings() {
			r.ResetSeed()
			col, err := r.Solve(st, false)
			if err != nil {
				t.Fatalf("%s: Solve(%v): %v", name, st, err)
			}
			for i, spec := range specs {
				want, _, err := s.ReferenceSimulate(spec, st, coldStart)
				if err != nil {
					t.Fatalf("%s: ReferenceSimulate(%v): %v", name, st, err)
				}
				if col[i] != want {
					t.Fatalf("%s: sample %d at %v: batch %+v != reference %+v",
						name, i, st, col[i], want)
				}
			}
		}
	}
}

func TestBatchWarmChainMatchesSeededReference(t *testing.T) {
	specs := workload.MustByName("lbm").MustRealize()[:40]
	for name, cfg := range batchConfigs() {
		s := MustNew(cfg)
		r, err := NewRunner(s, specs)
		if err != nil {
			t.Fatalf("%s: NewRunner: %v", name, err)
		}
		for _, fc := range []freq.MHz{100, 600, 1000} {
			r.ResetSeed()
			seeds := make([]float64, len(specs))
			for i := range seeds {
				seeds[i] = coldStart
			}
			for mi, st := range chainSettings(fc) {
				col, err := r.Solve(st, mi > 0)
				if err != nil {
					t.Fatalf("%s: Solve(%v): %v", name, st, err)
				}
				for i, spec := range specs {
					want, solved, err := s.ReferenceSimulate(spec, st, seeds[i])
					if err != nil {
						t.Fatalf("%s: ReferenceSimulate(%v): %v", name, st, err)
					}
					if col[i] != want {
						t.Fatalf("%s: sample %d at %v (chain step %d): batch %+v != seeded reference %+v",
							name, i, st, mi, col[i], want)
					}
					seeds[i] = solved
				}
			}
		}
	}
}

func TestSimulateSampleMatchesBatchCold(t *testing.T) {
	s := MustNew(DefaultConfig())
	specs := workload.MustByName("gcc").MustRealize()[:20]
	r, err := NewRunner(s, specs)
	if err != nil {
		t.Fatal(err)
	}
	st := freq.Setting{CPU: 700, Mem: 500}
	col, err := r.Solve(st, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want, err := s.SimulateSample(spec, st)
		if err != nil {
			t.Fatal(err)
		}
		if col[i] != want {
			t.Fatalf("sample %d: batch %+v != SimulateSample %+v", i, col[i], want)
		}
	}
}

func TestWarmStartReachesColdFixedPoint(t *testing.T) {
	// Warm and cold starts are different initial iterates of the same
	// damped contraction, so both must land on the fixed point within the
	// solver's own tolerance (a few tolerances of slack for the landing
	// position within the final damped step).
	s := system(t)
	specs := workload.MustByName("libquantum").MustRealize()[:60]
	warm, err := NewRunner(s, specs)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewRunner(s, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range freq.CoarseSpace().CPULadder() {
		warm.ResetSeed()
		for mi, st := range chainSettings(fc) {
			w, err := warm.Solve(st, mi > 0)
			if err != nil {
				t.Fatal(err)
			}
			cold.ResetSeed()
			c, err := cold.Solve(st, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := range specs {
				if !w[i].Converged || !c[i].Converged {
					t.Fatalf("sample %d at %v did not converge (warm %v cold %v)",
						i, st, w[i].Converged, c[i].Converged)
				}
				rel := math.Abs(w[i].TimeNS-c[i].TimeNS) / c[i].TimeNS
				if rel > 10*fixedPointTol {
					t.Errorf("sample %d at %v: warm %v vs cold %v, rel %v",
						i, st, w[i].TimeNS, c[i].TimeNS, rel)
				}
			}
		}
	}
}

func TestWarmStartSavesIterations(t *testing.T) {
	// The point of warm starting: sweeping a memory chain warm must spend
	// measurably fewer solver iterations than cold-starting every column.
	s := system(t)
	specs := workload.MustByName("lbm").MustRealize()
	warm, _ := NewRunner(s, specs)
	cold, _ := NewRunner(s, specs)
	for mi, st := range chainSettings(600) {
		if _, err := warm.Solve(st, mi > 0); err != nil {
			t.Fatal(err)
		}
		cold.ResetSeed()
		if _, err := cold.Solve(st, false); err != nil {
			t.Fatal(err)
		}
	}
	wi, ci := warm.Stats().Iterations, cold.Stats().Iterations
	if wi >= ci {
		t.Fatalf("warm sweep used %d iterations, cold %d — warm start saved nothing", wi, ci)
	}
	t.Logf("iterations: warm %d vs cold %d (%.0f%% saved)", wi, ci, 100*(1-float64(wi)/float64(ci)))
}

func TestBatchProperties(t *testing.T) {
	// Model invariants over a real benchmark sweep: every solve converges,
	// respects the bandwidth bound, keeps activity in (0,1], leaves every
	// cell's solve inputs and iterate non-negative with mlp >= 1, and time
	// never increases when only memory frequency rises.
	s := system(t)
	specs := workload.MustByName("milc").MustRealize()
	r, err := NewRunner(s, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range freq.CoarseSpace().CPULadder() {
		// Chains walk memory frequency downward, so per-sample time must be
		// non-decreasing along the chain (slower memory never speeds you up).
		prev := make([]float64, len(specs))
		for mi, st := range chainSettings(fc) {
			col, err := r.Solve(st, mi > 0)
			if err != nil {
				t.Fatal(err)
			}
			coeffs, err := s.ctrl.CoeffsAt(st.Mem)
			if err != nil {
				t.Fatal(err)
			}
			for i, smp := range col {
				if !smp.Converged {
					t.Fatalf("sample %d at %v did not converge", i, st)
				}
				bound := coeffs.MinServiceTimeNS(r.in[i].accesses)
				if smp.TimeNS < bound {
					t.Errorf("sample %d at %v: time %v below bandwidth bound %v",
						i, st, smp.TimeNS, bound)
				}
				if smp.Activity <= 0 || smp.Activity > 1 {
					t.Errorf("sample %d at %v: activity %v outside (0,1]", i, st, smp.Activity)
				}
				if cs := r.cells[i]; !(cs.computeNS >= 0 && cs.accesses >= 0 && cs.mlp >= 1 && cs.coreNS >= 0 &&
					cs.serviceNS >= 0 && cs.bwBoundNS >= 0 && cs.t >= 0) {
					t.Errorf("sample %d at %v: cell %+v has a negative field or mlp below 1", i, st, cs)
				}
				if smp.TimeNS < prev[i]*(1-fixedPointTol) {
					t.Errorf("sample %d: time fell from %v to %v when mem freq dropped to %v",
						i, prev[i], smp.TimeNS, st.Mem)
				}
				prev[i] = smp.TimeNS
			}
		}
	}
}

// oscillatorSpec is a sample engineered to defeat the damped iteration: at
// maximum MLP the solver's local slope magnitude exceeds 3, so the damped
// map's slope magnitude exceeds 1 and the iterate settles into a 2-cycle
// around the fixed point instead of converging. It is non-physical but
// passes validation; the solver must report it rather than silently accept
// the 50th iterate.
func oscillatorSpec() workload.SampleSpec {
	return workload.SampleSpec{
		Instructions: workload.SampleLen,
		BaseCPI:      0.5, MPKI: 300, RowHitRate: 0, MLP: 8, WriteFrac: 1,
	}
}

func TestConvergenceFailureReported(t *testing.T) {
	s := system(t)
	spec := oscillatorSpec()
	st := freq.Setting{CPU: 1000, Mem: 200}
	smp, err := s.SimulateSample(spec, st)
	if err != nil {
		t.Fatalf("SimulateSample: %v", err)
	}
	if smp.Converged {
		t.Skip("oscillator spec converged — solver dynamics changed; rebuild the adversarial case")
	}
	if smp.TimeNS <= 0 || math.IsNaN(smp.TimeNS) || math.IsInf(smp.TimeNS, 0) {
		t.Fatalf("unconverged sample has non-finite time %v", smp.TimeNS)
	}
	// The batch path must agree bit-for-bit and count the failure.
	r, err := NewRunner(s, []workload.SampleSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	col, err := r.Solve(st, false)
	if err != nil {
		t.Fatal(err)
	}
	if col[0] != smp {
		t.Fatalf("batch %+v != scalar %+v for unconverged sample", col[0], smp)
	}
	if got := r.Stats().ConvergenceFailures; got != 1 {
		t.Fatalf("ConvergenceFailures = %d, want 1", got)
	}
	ref, _, err := s.ReferenceSimulate(spec, st, coldStart)
	if err != nil {
		t.Fatal(err)
	}
	if ref != smp {
		t.Fatalf("reference %+v != scalar %+v for unconverged sample", ref, smp)
	}
}

func TestNewRunnerRejectsBadSpecs(t *testing.T) {
	s := system(t)
	bad := []workload.SampleSpec{cpuBoundSpec(), {}}
	if _, err := NewRunner(s, bad); err == nil {
		t.Error("runner accepted zero-instruction spec")
	}
	nan := cpuBoundSpec()
	nan.MPKI = math.NaN()
	if _, err := NewRunner(s, []workload.SampleSpec{nan}); err == nil {
		t.Error("runner accepted NaN MPKI")
	}
}

func TestRunnerSolveRejectsBadSetting(t *testing.T) {
	s := system(t)
	r, err := NewRunner(s, []workload.SampleSpec{cpuBoundSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Solve(freq.Setting{CPU: 5000, Mem: 400}, false); err == nil {
		t.Error("out-of-range CPU frequency accepted")
	}
	if _, err := r.Solve(freq.Setting{CPU: 500, Mem: 100}, false); err == nil {
		t.Error("out-of-range memory frequency accepted")
	}
}

// bwClampSpec is a sample whose every iterate clamps to the bandwidth
// bound: so little compute and so much memory-level parallelism that the
// bus, not latency, bounds the time at every setting. Non-physical, and no
// built-in cell reaches the clamp.
func bwClampSpec() workload.SampleSpec {
	return workload.SampleSpec{
		Instructions: workload.SampleLen,
		BaseCPI:      0.01, MPKI: 1000, RowHitRate: 1, MLP: 64, WriteFrac: 0,
	}
}

// utilCapSpec is a sample that converges with the queueing term at the
// utilization cap and its time above the bandwidth bound, at 700/400 MHz.
// Non-physical, and no built-in cell reaches the cap.
func utilCapSpec() workload.SampleSpec {
	return workload.SampleSpec{
		Instructions: workload.SampleLen,
		BaseCPI:      0.5, MPKI: 1000, RowHitRate: 1, MLP: 24, WriteFrac: 0.5,
	}
}

func TestBranchSpecsReachClampAndCap(t *testing.T) {
	s := system(t)
	st := freq.Setting{CPU: 700, Mem: 400}
	c, err := s.consts(st)
	if err != nil {
		t.Fatal(err)
	}
	specs := []workload.SampleSpec{bwClampSpec(), utilCapSpec()}
	var cells [2]cellSolve
	for i, spec := range specs {
		in := s.ingest(spec)
		cells[i] = startCell(&c, &in, coldStart)
	}
	active := []int{0, 1}
	if _, live := solveColumn(&c.lat, cells[:], active); live != 0 {
		t.Fatalf("specs %v did not converge at %v", active[:live], st)
	}
	if clamp := cells[0]; clamp.t != clamp.bwBoundNS {
		t.Errorf("bwClampSpec solved to %v, not its bandwidth bound %v", clamp.t, clamp.bwBoundNS)
	}
	capped := cells[1]
	if util := capped.accesses / capped.t * c.lat.LineTransferNS; util <= c.lat.UtilCap || capped.t <= capped.bwBoundNS {
		t.Errorf("utilCapSpec solved to %v (bound %v) at utilization %v, want above the bound and the cap %v",
			capped.t, capped.bwBoundNS, util, c.lat.UtilCap)
	}
}

// depthFirst solves each cell of one column depth-first, from seeds, as a
// one-cell column the way SimulateSample does, and returns the per-cell
// iteration counts and the number of cells that did not converge.
func depthFirst(t *testing.T, s *System, specs []workload.SampleSpec, st freq.Setting, seeds []float64) (iters []int, failures uint64) {
	t.Helper()
	c, err := s.consts(st)
	if err != nil {
		t.Fatal(err)
	}
	iters = make([]int, len(specs))
	for i, spec := range specs {
		in := s.ingest(spec)
		cell := [1]cellSolve{startCell(&c, &in, seeds[i])}
		n, live := solveColumn(&c.lat, cell[:], []int{0})
		iters[i] = int(n)
		if live != 0 {
			failures++
		}
	}
	return iters, failures
}

func TestColumnPassesMatchDepthFirst(t *testing.T) {
	// The oscillator sits between cells that converge on different passes
	// (the clamped cell on the first, the lbm cells a dozen or more later),
	// so each column drops cells from the active list at several passes
	// and keeps one to the end. Every cell must still match the reference
	// bit for bit, and the column's counters must equal the depth-first
	// per-cell sums.
	s := system(t)
	lbm := workload.MustByName("lbm").MustRealize()
	specs := append([]workload.SampleSpec(nil), lbm[:3]...)
	specs = append(specs, oscillatorSpec(), bwClampSpec())
	specs = append(specs, lbm[3:6]...)
	r, err := NewRunner(s, specs)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]float64, len(specs))
	for i := range seeds {
		seeds[i] = coldStart
	}
	columns := 0
	for _, st := range freq.CoarseSpace().Settings() {
		if smp, err := s.SimulateSample(oscillatorSpec(), st); err != nil || smp.Converged {
			continue
		}
		columns++
		before := r.Stats()
		col, err := r.Solve(st, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, spec := range specs {
			want, _, err := s.ReferenceSimulate(spec, st, seeds[i])
			if err != nil {
				t.Fatal(err)
			}
			if col[i] != want {
				t.Fatalf("cell %d at %v: batch %+v != reference %+v", i, st, col[i], want)
			}
		}
		iters, failures := depthFirst(t, s, specs, st, seeds)
		got := r.Stats()
		if n := got.ConvergenceFailures - before.ConvergenceFailures; n != 1 || failures != 1 {
			t.Errorf("at %v: column counted %d convergence failures, depth-first %d, want 1", st, n, failures)
		}
		sum, lo, hi := uint64(0), fixedPointIters, 0
		for i, n := range iters {
			sum += uint64(n)
			if col[i].Converged {
				lo, hi = min(lo, n), max(hi, n)
			}
		}
		if n := got.Iterations - before.Iterations; n != sum {
			t.Errorf("at %v: column took %d iterations, depth-first per-cell sum %d", st, n, sum)
		}
		if lo == hi {
			t.Errorf("at %v: every converged cell took %d iterations; the column never compacts mid-pass", st, lo)
		}
	}
	if columns == 0 {
		t.Fatal("oscillator spec converged at every coarse setting — rebuild the adversarial case")
	}
}

// FuzzBatchVsScalar places a randomized sample at a fuzzed position among
// fixed neighbors — lbm samples and the oscillator — drives the column
// through a warm memory chain on both engines, and requires every cell
// bit-identical to the reference at every step.
func FuzzBatchVsScalar(f *testing.F) {
	f.Add(uint64(3), 0.9, 12.0, 0.7, 2.5, 0.3, uint8(4), 0.01, uint8(1))
	f.Add(uint64(0), 0.5, 300.0, 0.0, 8.0, 1.0, uint8(9), 0.0, uint8(0))
	f.Add(uint64(91), 2.4, 0.0, 1.0, 1.0, 0.0, uint8(0), 0.05, uint8(4))
	f.Add(uint64(5), 0.01, 1000.0, 1.0, 64.0, 0.0, uint8(2), 0.01, uint8(2))
	f.Add(uint64(7), 0.5, 1000.0, 1.0, 24.0, 0.5, uint8(6), 0.0, uint8(3))
	neighbors := append(workload.MustByName("lbm").MustRealize()[:3:3], oscillatorSpec())
	f.Fuzz(func(t *testing.T, idx uint64, baseCPI, mpki, rowHit, mlp, writeFrac float64, cpuIdx uint8, noise float64, pos uint8) {
		spec := workload.SampleSpec{
			Index:        int(idx % 4096),
			Instructions: workload.SampleLen,
			BaseCPI:      baseCPI,
			MPKI:         mpki,
			RowHitRate:   rowHit,
			MLP:          mlp,
			WriteFrac:    writeFrac,
		}
		if validateSpec(spec) != nil {
			t.Skip("invalid spec")
		}
		p := int(pos) % (len(neighbors) + 1)
		specs := append(append(append([]workload.SampleSpec(nil), neighbors[:p]...), spec), neighbors[p:]...)
		cfg := NoiselessConfig()
		if math.IsNaN(noise) || noise < 0 || noise > 0.2 {
			noise = 0.01
		}
		cfg.MeasurementNoise = noise
		s := MustNew(cfg)
		ladder := freq.CoarseSpace().CPULadder()
		fc := ladder[int(cpuIdx)%len(ladder)]
		r, err := NewRunner(s, specs)
		if err != nil {
			t.Fatal(err)
		}
		seeds := make([]float64, len(specs))
		for i := range seeds {
			seeds[i] = coldStart
		}
		for mi, st := range chainSettings(fc) {
			col, err := r.Solve(st, mi > 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, sp := range specs {
				want, solved, err := s.ReferenceSimulate(sp, st, seeds[i])
				if err != nil {
					t.Fatal(err)
				}
				if col[i] != want {
					t.Fatalf("cell %d at %v (step %d): batch %+v != reference %+v", i, st, mi, col[i], want)
				}
				seeds[i] = solved
			}
		}
	})
}

func TestSolveAndSimulateSampleDoNotAllocate(t *testing.T) {
	// The solve chain's allocation guard: once NewRunner has sized the
	// arenas, a column solve allocates nothing, cold or warm, and neither
	// does the single-cell path. The lbm column converges everywhere; the
	// branch column adds the cells no built-in benchmark has. At 1000/200
	// MHz its oscillator never converges, which runs Solve's loop over
	// unconverged cells, and bwClampSpec takes solveColumn's bandwidth
	// clamp.
	s := MustNew(DefaultConfig())
	specs := workload.MustByName("lbm").MustRealize()
	r, err := NewRunner(s, specs)
	if err != nil {
		t.Fatal(err)
	}
	fast := freq.Setting{CPU: 700, Mem: 800}
	slow := freq.Setting{CPU: 700, Mem: 700}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"cold Solve", func() {
			if _, err := r.Solve(fast, false); err != nil {
				t.Fatal(err)
			}
		}},
		{"warm Solve", func() {
			if _, err := r.Solve(slow, true); err != nil {
				t.Fatal(err)
			}
		}},
		{"SimulateSample", func() {
			if _, err := s.SimulateSample(specs[0], slow); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if n := testing.AllocsPerRun(20, tc.run); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", tc.name, n)
		}
	}

	branch := append(append([]workload.SampleSpec(nil), specs[:3]...), oscillatorSpec(), bwClampSpec(), utilCapSpec())
	br, err := NewRunner(s, branch)
	if err != nil {
		t.Fatal(err)
	}
	oscillating := freq.Setting{CPU: 1000, Mem: 200}
	col, err := br.Solve(oscillating, false)
	if err != nil {
		t.Fatal(err)
	}
	if col[3].Converged {
		t.Fatalf("oscillator converged at %v; the branch column no longer reaches the unconverged-cell loop", oscillating)
	}
	for _, st := range []freq.Setting{oscillating, {CPU: 700, Mem: 400}} {
		for _, warm := range []bool{false, true} {
			n := testing.AllocsPerRun(20, func() {
				if _, err := br.Solve(st, warm); err != nil {
					t.Fatal(err)
				}
			})
			if n != 0 {
				t.Errorf("branch column Solve(%v, warm=%v): %v allocations per run, want 0", st, warm, n)
			}
		}
		for i, spec := range branch {
			n := testing.AllocsPerRun(20, func() {
				if _, err := s.SimulateSample(spec, st); err != nil {
					t.Fatal(err)
				}
			})
			if n != 0 {
				t.Errorf("SimulateSample(branch[%d], %v): %v allocations per run, want 0", i, st, n)
			}
		}
	}
}
