package main

// The characterize workload: the paper's own pipeline as a closed-loop
// batch. One pass collects every registered benchmark over the coarse and
// the fine space with trace.CollectContext at the default worker count,
// analyzes each grid with core, and takes the optimal schedule and stable
// regions at every Figure 10 budget.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mcdvfs/internal/core"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

// gridOp is one (benchmark, space) characterization, the workload's
// operation.
type gridOp struct {
	bench string
	space namedSpace
}

// charPass accumulates one pass.
type charPass struct {
	wall, replay time.Duration
	cells, ops   int
	failed       int
	optLat       []float64 // per OptimalSchedule call on coarse grids, ms
	cpu          time.Duration
	peakRSSMB    float64 // peak resident set during the pass, 0 if it could not be isolated
}

// charTraced accumulates the traced passes' layer counters.
type charTraced struct {
	collect, collectCPU                        time.Duration
	analyze, optimal, regions, realize         time.Duration
	ingest, solve                              time.Duration
	samples, cells, solveCells                 int
	itersCold, itersWarm, cellsCold, cellsWarm uint64
	convergence                                uint64
	grids                                      []*trace.Grid // coarse grids of the last pass
}

type characterizer struct {
	sys    *sim.System
	golden map[string]goldenEntry
	ops    []gridOp
	tr     *Tracer
	tc     charTraced
	passID int64
}

// pass runs every op once. With traced set it also realizes each workload
// and replays each grid's chains through a sim.Runner, recording spans.
func (c *characterizer) pass(ctx context.Context, traced bool) (charPass, error) {
	var p charPass
	reset := resetPeakRSS()
	cpu0 := processCPU()
	start := time.Now()
	c.passID++
	c.tc.grids = c.tc.grids[:0]
	for _, op := range c.ops {
		ok, err := c.op(ctx, op, traced, &p)
		if err != nil {
			return p, err
		}
		p.ops++
		if !ok {
			p.failed++
		}
	}
	end := time.Now()
	p.wall, p.cpu = end.Sub(start), processCPU()-cpu0
	if reset {
		p.peakRSSMB = peakRSSMB()
	}
	if traced {
		c.tr.add(Span{Req: c.passID, Layer: "bench", Name: "pass", Start: c.tr.at(start), End: c.tr.at(end)})
	}
	return p, nil
}

// span records one child span of the current pass.
func (c *characterizer) span(layer, name string, t0, t1 time.Time) {
	c.tr.add(Span{Req: c.passID, Layer: layer, Name: name, Start: c.tr.at(t0), End: c.tr.at(t1)})
}

// op characterizes one grid and checks it against the pinned digests. It
// returns false for a wrong output; errors are reserved for failures the
// run cannot continue past.
func (c *characterizer) op(ctx context.Context, op gridOp, traced bool, p *charPass) (bool, error) {
	b := workload.MustByName(op.bench)
	want := c.golden[op.bench+"|"+op.space.name]
	t0 := time.Now()
	cpu0 := processCPU()
	g, err := trace.CollectContext(ctx, c.sys, b, op.space.space, trace.CollectOptions{})
	if err != nil {
		return false, fmt.Errorf("characterize %s %s: %w", op.bench, op.space.name, err)
	}
	t1 := time.Now()
	ok := g.Validate() == nil && g.ConvergenceFailures == 0 && digestGrid(g) == want.Cells
	p.cells += g.NumSamples() * g.NumSettings()
	if traced {
		c.tc.collect += t1.Sub(t0)
		c.tc.collectCPU += processCPU() - cpu0
		c.tc.cells += g.NumSamples() * g.NumSettings()
		c.tc.convergence += g.ConvergenceFailures
		c.span("trace", "collect", t0, t1)
	}
	t2 := time.Now()
	a, err := core.NewAnalysis(g)
	if err != nil {
		return false, nil
	}
	t3 := time.Now()
	var optT, regT time.Duration
	for i, budget := range fig10Budgets {
		s0 := time.Now()
		sch, err := a.OptimalSchedule(budget)
		s1 := time.Now()
		if err != nil || len(want.Schedules) <= i || digestSchedule(sch) != want.Schedules[i] {
			ok = false
		}
		rs, err := a.StableRegions(budget, regionThreshold)
		s2 := time.Now()
		if err != nil || len(want.Regions) <= i || digestRegions(rs) != want.Regions[i] {
			ok = false
		}
		optT, regT = optT+s1.Sub(s0), regT+s2.Sub(s1)
		if op.space.name == "coarse" {
			p.optLat = append(p.optLat, ms(s1.Sub(s0)))
		}
		if traced {
			c.span("core", "optimal", s0, s1)
			c.span("core", "regions", s1, s2)
		}
	}
	if traced {
		c.tc.analyze += t3.Sub(t2)
		c.tc.optimal += optT
		c.tc.regions += regT
		c.span("core", "analyze", t2, t3)
		r0 := time.Now()
		if !c.replay(b, op.space.space, g) {
			ok = false
		}
		p.replay += time.Since(r0)
		if op.space.name == "coarse" {
			c.tc.grids = append(c.tc.grids, g)
		}
	}
	return ok, nil
}

// replay re-solves the grid's chains in the order trace.CollectContext
// documents — per CPU step, memory steps descending, the seed reset at each
// chain start — and splits the solver's iteration count between each
// chain's first (cold) column and the rest (warm). It reports whether the
// replayed cells reproduce the collected grid bit for bit.
func (c *characterizer) replay(b workload.Benchmark, space *freq.Space, g *trace.Grid) bool {
	t0 := time.Now()
	specs, err := b.Realize()
	t1 := time.Now()
	if err != nil {
		return false
	}
	r, err := sim.NewRunner(c.sys, specs)
	t2 := time.Now()
	if err != nil {
		return false
	}
	c.span("workload", "realize", t0, t1)
	c.span("sim", "ingest", t1, t2)
	c.tc.realize += t1.Sub(t0)
	c.tc.ingest += t2.Sub(t1)
	c.tc.samples += len(specs)

	same := true
	nc, nm := len(space.CPULadder()), len(space.MemLadder())
	for ci := 0; ci < nc; ci++ {
		r.ResetSeed()
		for mi := nm - 1; mi >= 0; mi-- {
			k := ci*nm + mi
			before := r.Stats().Iterations
			col, err := r.Solve(g.Settings[k], mi < nm-1)
			if err != nil {
				return false
			}
			iters := r.Stats().Iterations - before
			if mi == nm-1 {
				c.tc.itersCold += iters
				c.tc.cellsCold += uint64(len(col))
			} else {
				c.tc.itersWarm += iters
				c.tc.cellsWarm += uint64(len(col))
			}
			for s := range col {
				m := g.Data[s][k]
				if col[s].TimeNS != m.TimeNS || col[s].CPUEnergyJ != m.CPUEnergyJ || col[s].MemEnergyJ != m.MemEnergyJ {
					same = false
				}
			}
		}
	}
	t3 := time.Now()
	c.span("sim", "solve", t2, t3)
	c.tc.solve += t3.Sub(t2)
	c.tc.solveCells += len(specs) * space.Len()
	return same
}

func runCharacterize(ctx context.Context, o opts) (*Report, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	var ops []gridOp
	for _, name := range workload.Names() {
		for _, sp := range registrySpaces() {
			ops = append(ops, gridOp{name, sp})
		}
	}
	// The seed orders the pass; the work in a pass does not depend on it.
	rand.New(rand.NewSource(o.seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	rep := newReport("characterize", o)
	rep.Params = map[string]any{
		"loop":             "closed, one pass at a time",
		"benchmarks":       len(workload.Names()),
		"spaces":           []string{"coarse (70 settings)", "fine (496 settings)"},
		"collect_workers":  fmt.Sprintf("default (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
		"budgets":          fig10Budgets,
		"region_threshold": regionThreshold,
		"setup_repeats":    setupRepeats,
		"warmup":           "one untimed pass per set-up",
		"optimal_latency":  "per Analysis.OptimalSchedule call on coarse grids",
		"max_rate":         "grid characterizations per second, closed loop (median over passes)",
		"peak_rss":         "median over timed passes of each pass's peak resident set (VmHWM reset at each pass)",
		"cpu_per_op":       "median over timed passes of process CPU per grid characterization",
	}

	var c *characterizer
	var setups []float64
	var failed, attempted int
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		sys, err := sim.New(sim.DefaultConfig())
		if err != nil {
			return nil, err
		}
		c = &characterizer{sys: sys, golden: golden, ops: ops, tr: newTracer()}
		p, err := c.pass(ctx, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		attempted, failed = attempted+p.ops, failed+p.failed
	}

	timed := func(d time.Duration, traced bool) ([]charPass, runtimeSample, runtimeSample, error) {
		var passes []charPass
		rt0 := readRuntime()
		start := time.Now()
		for len(passes) == 0 || time.Since(start) < d {
			p, err := c.pass(ctx, traced)
			if err != nil {
				return nil, rt0, rt0, err
			}
			passes = append(passes, p)
		}
		return passes, rt0, readRuntime(), nil
	}
	summarize := func(passes []charPass) (cellsPerS, opsPerS, cpuPerOp float64, lat []float64, ops, bad int) {
		var cps, rates, cpu []float64
		for _, p := range passes {
			w := (p.wall - p.replay).Seconds()
			cps = append(cps, float64(p.cells)/w)
			rates = append(rates, float64(p.ops)/w)
			cpu = append(cpu, ms(p.cpu)/float64(p.ops))
			lat = append(lat, p.optLat...)
			ops, bad = ops+p.ops, bad+p.failed
		}
		return median(cps), median(rates), median(cpu), lat, ops, bad
	}

	if !o.trace {
		ticks0 := readCPUTicks()
		passes, _, _, err := timed(o.seconds, false)
		if err != nil {
			return nil, err
		}
		rep.named("host_stolen_share", stolenShare(ticks0, readCPUTicks()), "ratio", 1)
		cps, rate, cpuOp, lat, n, bad := summarize(passes)
		rep.setCounts(attempted+n, failed+bad)
		rep.Wrong = rep.Failed
		rep.Detail["passes"] = len(passes)
		rep.Detail["cells_per_pass"] = passes[0].cells
		rep.named("cells_per_s", cps, "cells/s", len(passes))
		var peaks []float64
		for _, p := range passes {
			if p.peakRSSMB > 0 {
				peaks = append(peaks, p.peakRSSMB)
			}
		}
		rep.Detail["pass_peak_rss_mb"] = peaks
		rep.endToEnd(setups, n, bad, rate, func(m map[string]Metric) {
			m["cpu_ms_per_req"] = Metric{cpuOp, "ms"}
			// The median pass's peak: the whole run's peak is one extreme
			// sample of where the garbage collector happened to run.
			if len(peaks) == len(passes) {
				m["peak_rss_mb"] = Metric{median(peaks), "MiB"}
			}
		})
		rep.latency("optimal", lat)
		return rep, nil
	}

	// Traced run: the first half untraced for the overhead baseline, the
	// second half traced; the replay's own time is excluded from the
	// traced throughput, since it is extra work rather than tracing cost.
	base, _, _, err := timed(o.seconds/2, false)
	if err != nil {
		return nil, err
	}
	c.tc = charTraced{}
	c.tr.take()
	passes, rt0, rt1, err := timed(o.seconds/2, true)
	if err != nil {
		return nil, err
	}
	baseCPS, _, _, _, n0, bad0 := summarize(base)
	tracedCPS, _, _, _, n1, bad1 := summarize(passes)
	rep.setCounts(attempted+n0+n1, failed+bad0+bad1)
	rep.Wrong = rep.Failed

	spans := c.tr.take()
	buildTrees(spans)
	st := selfTimes(spans)
	np := float64(len(passes))
	tc := c.tc
	var passWall, replay time.Duration
	for _, p := range passes {
		passWall += p.wall
		replay += p.replay
	}
	enc, dec := codecCost(tc.grids)
	m := perLayerZero()
	m["trace.collect_ns_per_cell"] = float64(tc.collect.Nanoseconds()) / float64(tc.cells)
	m["trace.collect_pass_share"] = ratio(tc.collect.Seconds(), (passWall - replay).Seconds())
	m["trace.collect_cpu_util"] = ratio(tc.collectCPU.Seconds(), tc.collect.Seconds()*float64(runtime.GOMAXPROCS(0)))
	m["trace.convergence_failures"] = float64(tc.convergence)
	m["trace.encode_ms_per_mb"], m["trace.decode_ms_per_mb"] = enc, dec
	m["sim.ingest_ns_per_sample"] = float64(tc.ingest.Nanoseconds()) / float64(tc.samples)
	m["sim.solve_ns_per_cell"] = float64(tc.solve.Nanoseconds()) / float64(tc.solveCells)
	m["sim.iters_per_cell_cold"] = float64(tc.itersCold) / float64(tc.cellsCold)
	m["sim.iters_per_cell_warm"] = float64(tc.itersWarm) / float64(tc.cellsWarm)
	m["workload.realize_ms_per_pass"] = ms(tc.realize) / np
	m["core.analyze_ms_per_pass"] = ms(tc.analyze) / np
	m["core.optimal_ms_per_pass"] = ms(tc.optimal) / np
	m["core.regions_ms_per_pass"] = ms(tc.regions) / np
	m["runtime.gc_cpu_share"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	m["runtime.alloc_mb_per_op"] = (rt1.allocBytes - rt0.allocBytes) / 1e6 / float64(n1)
	m["overhead.cells_per_s"] = tracedCPS - baseCPS
	rep.Detail["solver_counts"] = map[string]uint64{
		"iterations_cold": tc.itersCold, "cells_cold": tc.cellsCold,
		"iterations_warm": tc.itersWarm, "cells_warm": tc.cellsWarm,
	}
	rep.Detail["http_requests"] = 0
	rep.Detail["traced_passes"], rep.Detail["baseline_passes"] = len(passes), len(base)
	rep.Detail["cells_per_s_untraced"], rep.Detail["cells_per_s_traced"] = baseCPS, tracedCPS
	rep.perLayer(m, st, spans, o)
	return rep, nil
}
