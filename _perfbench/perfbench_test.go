package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestPercentileTailRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p := percentile(xs, 0.99)
	if p.Value != 990 || p.Beyond != 10 || !p.Supported {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990 with 10 beyond, supported", p)
	}
	p = percentile(xs[:999], 0.99)
	if p.Supported || p.Beyond != 9 {
		t.Fatalf("p99 of 999 samples = %+v, want unsupported with 9 beyond", p)
	}
	if m := percentile(xs[:3], 0.5); m.Value != 2 || !m.Supported {
		t.Fatalf("median of 1,2,3 = %+v", m)
	}
	if got := highestSupported(1000, 0.5, 0.9, 0.99, 0.999); got != 0.99 {
		t.Fatalf("highestSupported(1000) = %v, want 0.99", got)
	}
	if got := highestSupported(500, 0.5, 0.9, 0.99); got != 0.9 {
		t.Fatalf("highestSupported(500) = %v, want 0.9", got)
	}
}

func TestMeetsLimit(t *testing.T) {
	xs := make([]float64, 200) // 1% of 200 may exceed: two samples
	xs[0], xs[1] = 50, 60
	if !meetsLimit(xs, 0.99, 10) {
		t.Fatal("two of 200 over the limit should meet a p99 limit")
	}
	xs[2] = 70
	if meetsLimit(xs, 0.99, 10) {
		t.Fatal("three of 200 over the limit should miss a p99 limit")
	}
}

func span(req int64, layer string, start, end int64) Span {
	return Span{Req: req, Layer: layer, Start: start, End: end}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []Span{
		span(1, "loadgen", 0, 100),
		span(1, "http", 10, 100),
		span(1, "serve", 20, 90),
		span(1, "experiments", 30, 60),
		span(2, "loadgen", 0, 10),
	}
	buildTrees(spans)
	st := selfTimes(spans)
	want := map[string]int64{"loadgen": 10 + 10, "http": 20, "serve": 40, "experiments": 30}
	if !reflect.DeepEqual(st.Layer, want) {
		t.Fatalf("self times %v, want %v", st.Layer, want)
	}
	if st.Root != 110 || st.Sum != 110 || st.SumError() != 0 {
		t.Fatalf("root %d sum %d error %v, want 110 110 0", st.Root, st.Sum, st.SumError())
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// Two children overlap on [40,60): the parent's covered time is their
	// union (50), not their sum (70); each child keeps its full self time,
	// so the layer total exceeds the root by the overlap.
	parent := span(1, "serve", 0, 100)
	a := span(1, "experiments", 20, 60)
	b := span(1, "experiments", 40, 70)
	if got := covered(parent, []Span{a, b}); got != 50 {
		t.Fatalf("covered = %d, want 50", got)
	}
	spans := []Span{parent, a, b}
	buildTrees(spans)
	st := selfTimes(spans)
	if st.Layer["serve"] != 50 || st.Layer["experiments"] != 70 {
		t.Fatalf("self times %v, want serve 50, experiments 70", st.Layer)
	}
	if st.Sum-st.Root != 20 {
		t.Fatalf("sum %d root %d, want the 20 ns overlap as the excess", st.Sum, st.Root)
	}
	// A child running past its parent is clipped in the parent's cover.
	late := span(2, "http", 0, 10)
	over := span(2, "serve", 5, 15)
	if got := covered(late, []Span{over}); got != 5 {
		t.Fatalf("clipped cover = %d, want 5", got)
	}
}

func TestBacklogGrowth(t *testing.T) {
	if backlogGrows([]int{0, 1, 0, 2, 1, 0, 1, 2, 0}, 500) {
		t.Fatal("a fluctuating backlog does not grow")
	}
	if backlogGrows([]int{0, 9, 0, 12, 3, 0, 14, 2, 6}, 500) {
		t.Fatal("a backlog spiking without a trend does not grow")
	}
	if !backlogGrows([]int{1, 5, 9, 14, 18, 22, 27, 31, 36}, 500) {
		t.Fatal("a linearly rising backlog grows")
	}
	if backlogGrows([]int{1, 5, 9, 14, 18, 22, 27, 31, 36}, 5000) {
		t.Fatal("a rise under 5% of the rung's requests is not growth")
	}
	if backlogGrows([]int{3, 40}, 500) {
		t.Fatal("too few samples to judge")
	}
}

func TestJudgeRung(t *testing.T) {
	mk := func(lat []float64, failed int, backlog []int) PhaseRun {
		var run PhaseRun
		for _, l := range lat {
			run.Results = append(run.Results, Result{Kind: KOptimal, Status: 200, LatMS: l})
		}
		for i := 0; i < failed; i++ {
			run.Results = append(run.Results, Result{Kind: KOptimal, Status: 429})
		}
		run.Backlog = backlog
		return run
	}
	fast := make([]float64, 300)
	for i := range fast {
		fast[i] = 1
	}
	level := []int{0, 1, 0, 1, 0, 1}
	if r := judgeRung(1, 440, mk(fast, 0, level), 10); !r.Pass {
		t.Fatalf("fast, clean, level rung should pass: %+v", r)
	}
	if r := judgeRung(1, 440, mk(fast, 1, level), 10); r.Pass {
		t.Fatal("a rung with a failed request must fail")
	}
	if r := judgeRung(1, 440, mk(fast, 0, []int{0, 5, 10, 20, 30, 40}), 10); r.Pass || !r.BacklogGrew {
		t.Fatal("a rung whose backlog grows must fail")
	}
	slow := append([]float64(nil), fast...)
	for i := 0; i < 4; i++ {
		slow[i] = 20
	}
	if r := judgeRung(1, 440, mk(slow, 0, level), 10); r.Pass {
		t.Fatal("four of 300 over the limit breaks a p99 limit")
	}
}

func TestSearchLadder(t *testing.T) {
	for edge := 0; edge <= ladderRungs; edge++ {
		probes := 0
		got := searchLadder(ladderRungs, func(i int) bool { probes++; return i <= edge })
		if got != edge {
			t.Errorf("edge %d: search found %d", edge, got)
		}
		if probes > 5 {
			t.Errorf("edge %d: %d probes, want at most 5", edge, probes)
		}
	}
}

func TestScheduleDeterminism(t *testing.T) {
	spec := ScheduleSpec{Rate: 400, Count: 2000, Mix: loadgenMix(), Pool: []string{"a", "b", "c"}, ZipfS: 1.4, Budgets: []float64{1.3}, Targets: 3}
	a, b := generate(spec, 7), generate(spec, 7)
	if !reflect.DeepEqual(a, b) || scheduleDigest(a) != scheduleDigest(b) {
		t.Fatal("the same seed must give the same schedule")
	}
	if scheduleDigest(generate(spec, 8)) == scheduleDigest(a) {
		t.Fatal("another seed should give another schedule")
	}
	counts := map[Kind]int{}
	for i, r := range a {
		counts[r.Kind]++
		if i > 0 && r.Due < a[i-1].Due {
			t.Fatal("due times must not decrease")
		}
		if r.Target != i%3 {
			t.Fatal("targets are round-robin")
		}
	}
	want := map[Kind]int{KGrid: 200, KOptimal: 1400, KStability: 200, KEmin: 100, KBenchmarks: 100}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("kind counts %v, want the mix's exact proportions %v", counts, want)
	}
	if mean := a[len(a)-1].Due.Seconds() / float64(len(a)); mean < 0.9/400 || mean > 1.1/400 {
		t.Fatalf("mean interarrival %v s, want about 1/400", mean)
	}
}

func TestBudgetRangeExact(t *testing.T) {
	bs := budgetRange(100, 200)
	if len(bs) != 101 || bs[0] != 1 || bs[30] != 1.3 || bs[100] != 2 {
		t.Fatalf("budgetRange(100, 200) = %v", bs)
	}
}

// TestBenchmarkJSONMatchesCode keeps the metric names BENCHMARK.json bounds in
// step with the names the benchmark prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, code has %v", names, workloads)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		g := make([]string, 0, len(got))
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		w := make([]string, 0, len(want))
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		sort.Strings(g)
		sort.Strings(w)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s metrics in BENCHMARK.json %v, code has %v", kind, g, w)
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEndDefs)
	check("per_layer", cfg.PerLayer, perLayerDefs)
}

func TestWindowedP99(t *testing.T) {
	// Three windows of 1000 samples; a stall burst in the middle one moves
	// that window's p99 but not the median across windows.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i%1000) / 100 // window p99: 9.89
	}
	for i := 1000; i < 1050; i++ {
		xs[i] = 500
	}
	rep := &Report{Valid: true, Named: map[string]NamedMetric{}, Percentiles: map[string]Pct{}, Detail: map[string]any{}}
	rep.latency("optimal", xs)
	if got := rep.Named["optimal_p99_ms"].Value; got != 9.89 {
		t.Fatalf("windowed p99 = %v, want 9.89", got)
	}
	if p := rep.Percentiles["optimal_p99_ms"]; !p.Supported || p.N != 3000 || p.Beyond != 30 || !rep.Valid {
		t.Fatalf("windowed p99 support %+v, valid %v", p, rep.Valid)
	}
	rep.latency("short", xs[:999])
	if rep.Valid || len(rep.Invalid) == 0 {
		t.Fatal("a p99 over 999 samples must mark the run invalid")
	}
}

func TestStolenShare(t *testing.T) {
	// 150 busy and 50 stolen ticks: a quarter of the runnable time.
	if got := stolenShare(cpuTicks{busy: 1000, steal: 100}, cpuTicks{busy: 1150, steal: 150}); got != 0.25 {
		t.Fatalf("stolen share %v, want 0.25", got)
	}
	if got := stolenShare(cpuTicks{}, cpuTicks{}); got != 0 {
		t.Fatalf("idle stolen share %v, want 0", got)
	}
}
