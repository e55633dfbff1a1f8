package sim

// Differential and property suite for the columnar batch engine. The
// load-bearing contract: cold-started batch columns are bit-identical to
// the retained scalar reference (reference.go), warm-started columns are
// bit-identical to the seeded reference, and warm starts land on the cold
// fixed point within solver tolerance.

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
				want, _, err := s.ReferenceSimulate(spec, st, coldStart) //lint:allow rangecheck coldStart is the out-of-band sentinel for "no seed", not a physical time
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
	// respects the bandwidth bound, keeps activity in (0,1], and time never
	// increases when only memory frequency rises.
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
	ref, _, err := s.ReferenceSimulate(spec, st, coldStart) //lint:allow rangecheck coldStart is the out-of-band sentinel for "no seed", not a physical time
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

// FuzzBatchVsScalar drives a randomized sample through a warm memory chain
// on both engines and requires bit-identical results at every step.
func FuzzBatchVsScalar(f *testing.F) {
	f.Add(uint64(3), 0.9, 12.0, 0.7, 2.5, 0.3, uint8(4), 0.01)
	f.Add(uint64(0), 0.5, 300.0, 0.0, 8.0, 1.0, uint8(9), 0.0)
	f.Add(uint64(91), 2.4, 0.0, 1.0, 1.0, 0.0, uint8(0), 0.05)
	f.Fuzz(func(t *testing.T, idx uint64, baseCPI, mpki, rowHit, mlp, writeFrac float64, cpuIdx uint8, noise float64) {
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
		cfg := NoiselessConfig()
		if math.IsNaN(noise) || noise < 0 || noise > 0.2 {
			noise = 0.01
		}
		cfg.MeasurementNoise = noise
		s := MustNew(cfg)
		ladder := freq.CoarseSpace().CPULadder()
		fc := ladder[int(cpuIdx)%len(ladder)]
		r, err := NewRunner(s, []workload.SampleSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		seed := coldStart
		for mi, st := range chainSettings(fc) {
			col, err := r.Solve(st, mi > 0)
			if err != nil {
				t.Fatal(err)
			}
			want, solved, err := s.ReferenceSimulate(spec, st, seed)
			if err != nil {
				t.Fatal(err)
			}
			if col[0] != want {
				t.Fatalf("at %v (step %d): batch %+v != reference %+v", st, mi, col[0], want)
			}
			seed = solved
		}
	})
}
