package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 5

// Metric is one value of the final result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEndDefs are the metrics of an untraced run's result line, reported
// for every workload (BENCHMARK.json lists the same names with their
// bounds). The latencies (optimal_p50_ms, optimal_p99_ms) and max_rate_rps
// are printed and recorded but not in the result line: on the recording
// host (2 vCPUs of a shared machine) the hypervisor takes from 0 to over
// 40% of the runnable CPU time, varying from minute to minute, and with the
// same code the serve-miss p50 moved by 40% and more between quiet and
// contended runs, the cluster-ring p50 doubled, the p99 follows the host's
// own scheduling stalls, and the saturation rate moved by 30% within one
// series of runs: more than any bound a regression check could use. Each
// record carries the timed phase's stolen share (host_stolen_share) so a
// reader can tell a contended run. The metrics that exist on some
// workloads only (cells_per_s, grid_p50_ms, the grid tail, failed_share)
// are printed and recorded too.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"ok_share", "ratio"},
	{"cpu_ms_per_req", "ms"},
}

// perLayerDefs are the metrics of a traced run. A layer a workload does not
// exercise reads 0.
var perLayerDefs = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.conn_wait_p99_ms", "ms"},
	{"http.grid_transfer_p50_ms", "ms"},
	{"http.conn_reused_share", "ratio"},
	{"http.requests", "count"},
	{"serve.optimal_handler_p50_ms", "ms"},
	{"serve.optimal_handler_p99_ms", "ms"},
	{"serve.grid_handler_p50_ms", "ms"},
	{"serve.grid_handler_p99_ms", "ms"},
	{"serve.grid_response_mb", "MB"},
	{"serve.memo_hit_share", "ratio"},
	{"serve.bench_evictions", "count"},
	{"serve.shed", "count"},
	{"serve.queued_max", "count"},
	{"experiments.collections", "count"},
	{"experiments.collect_share", "ratio"},
	{"experiments.flight_p50_ms", "ms"},
	{"experiments.flight_p99_ms", "ms"},
	{"experiments.columns", "count"},
	{"cluster.proxied_share", "ratio"},
	{"cluster.proxied_grid_p50_ms", "ms"},
	{"cluster.local_grid_p50_ms", "ms"},
	{"cluster.replica_seeds", "count"},
	{"cluster.inflight_waits", "count"},
	{"cluster.proxy_errors", "count"},
	{"cluster.stale_fallbacks", "count"},
	{"trace.collect_ns_per_cell", "ns"},
	{"trace.collect_pass_share", "ratio"},
	{"trace.collect_cpu_util", "ratio"},
	{"trace.convergence_failures", "count"},
	{"trace.encode_ms_per_mb", "ms/MB"},
	{"trace.decode_ms_per_mb", "ms/MB"},
	{"sim.ingest_ns_per_sample", "ns"},
	{"sim.solve_ns_per_cell", "ns"},
	{"sim.iters_per_cell_cold", "iter/cell"},
	{"sim.iters_per_cell_warm", "iter/cell"},
	{"workload.realize_ms_per_pass", "ms"},
	{"core.analyze_ms_per_pass", "ms"},
	{"core.optimal_ms_per_pass", "ms"},
	{"core.regions_ms_per_pass", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"self.loadgen_share", "ratio"},
	{"self.http_share", "ratio"},
	{"self.cluster_share", "ratio"},
	{"self.serve_share", "ratio"},
	{"self.experiments_share", "ratio"},
	{"self.bench_share", "ratio"},
	{"self.trace_share", "ratio"},
	{"self.workload_share", "ratio"},
	{"self.sim_share", "ratio"},
	{"self.core_share", "ratio"},
	{"self.sum_error", "ratio"},
	{"overhead.optimal_p50_ms", "ms"},
	{"overhead.optimal_p99_ms", "ms"},
	{"overhead.cpu_ms_per_req", "ms"},
	{"overhead.cells_per_s", "cells/s"},
}

// layers are the span layers whose self times the traced run reports.
var layers = []string{"loadgen", "http", "cluster", "serve", "experiments", "bench", "trace", "workload", "sim", "core"}

func perLayerZero() map[string]float64 {
	m := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m[d.name] = 0
	}
	return m
}

// NamedMetric is a named measurement with its unit and sample count.
type NamedMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// Report is the self-describing record of one run.
type Report struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Trace        bool                   `json:"trace"`
	Seconds      float64                `json:"seconds"`
	Env          Env                    `json:"env"`
	Params       map[string]any         `json:"params"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Wrong        int                    `json:"wrong_outputs"`
	Valid        bool                   `json:"valid"`
	Invalid      []string               `json:"invalid_reasons,omitempty"`
	Named        map[string]NamedMetric `json:"named_metrics"`
	Percentiles  map[string]Pct         `json:"percentiles"`
	Detail       map[string]any         `json:"detail"`
	Metrics      map[string]Metric      `json:"metrics"`
	SetupSamples []float64              `json:"setup_s_samples"`
}

func newReport(workload string, o opts) *Report {
	return &Report{
		Workload:    workload,
		Seed:        o.seed,
		Trace:       o.trace,
		Seconds:     o.seconds.Seconds(),
		Env:         readEnv(o.root),
		Valid:       true,
		Named:       make(map[string]NamedMetric),
		Percentiles: make(map[string]Pct),
		Detail:      make(map[string]any),
	}
}

func (r *Report) setCounts(attempted, failed int) { r.Attempted, r.Failed = attempted, failed }

func (r *Report) invalid(reason string) {
	r.Valid = false
	r.Invalid = append(r.Invalid, reason)
}

func (r *Report) named(name string, v float64, unit string, samples int) {
	r.Named[name] = NamedMetric{v, unit, samples}
}

// maxWindows bounds how many windows a p99 is taken over.
const maxWindows = 9

// latency records the median and the p99 of xs (in arrival order) under
// prefix, as named metrics. The p99 is the median of the p99s of up to
// maxWindows consecutive windows of at least 1000 samples each, so one
// burst of host stalls moves one window rather than the reported tail;
// with fewer than 2000 samples it is the plain p99.
func (r *Report) latency(prefix string, xs []float64) {
	p50 := percentile(xs, 0.5)
	w := min(max(len(xs)/(100*minBeyond), 1), maxWindows)
	var tails []float64
	p99 := Pct{Q: 0.99, N: len(xs), Supported: true}
	for i := 0; i < w; i++ {
		p := percentile(xs[i*len(xs)/w:(i+1)*len(xs)/w], 0.99)
		tails = append(tails, p.Value)
		p99.Beyond += p.Beyond
		p99.Supported = p99.Supported && p.Supported
	}
	p99.Value = median(tails)
	for name, p := range map[string]Pct{prefix + "_p50_ms": p50, prefix + "_p99_ms": p99} {
		r.Percentiles[name] = p
		r.named(name, p.Value, "ms", p.N)
		if !p.Supported {
			r.invalid(fmt.Sprintf("%s rests on %d samples, %d beyond it (need %d per window)", name, p.N, p.Beyond, minBeyond))
		}
	}
	r.Detail[prefix+"_p99_windows_ms"] = tails
}

// tail records the median and the highest tail percentile of xs that the
// samples support (p99 when there are at least 1000), named by it, e.g.
// grid_p99_ms or grid_p98.5_ms, as named metrics.
func (r *Report) tail(prefix string, xs []float64) {
	p := percentile(xs, 0.5)
	r.Percentiles[prefix+"_p50_ms"] = p
	r.named(prefix+"_p50_ms", p.Value, "ms", p.N)
	q := highestSupported(len(xs), 0.99, 0.985, 0.98, 0.95, 0.9)
	if q == 0 {
		return
	}
	p = percentile(xs, q)
	name := fmt.Sprintf("%s_p%s_ms", prefix, strconv.FormatFloat(100*q, 'f', -1, 64))
	r.Percentiles[name] = p
	r.named(name, p.Value, "ms", p.N)
}

// layerPct sets a per-layer percentile metric and records its support. A
// layer sees fewer samples than the whole run (a traced half, one request
// kind), so a per-layer p99 may rest on fewer than minBeyond samples beyond
// it; such a value is still reported, and listed as unsupported.
func (r *Report) layerPct(m map[string]float64, name string, xs []float64, q float64) {
	p := percentile(xs, q)
	m[name] = p.Value
	r.Percentiles[name] = p
	if p.N > 0 && !p.Supported {
		unsupported, _ := r.Detail["unsupported_percentiles"].([]string)
		r.Detail["unsupported_percentiles"] = append(unsupported, name)
	}
}

// endToEnd fills the untraced metrics: set-up, memory and success share
// here, the workload's own through fill; maxRate is recorded as a named
// metric.
func (r *Report) endToEnd(setups []float64, timedAttempted, timedFailed int, maxRate float64, fill func(map[string]Metric)) {
	r.SetupSamples = setups
	m := map[string]Metric{
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {peakRSSMB(), "MiB"},
		"ok_share":    {1 - ratio(float64(timedFailed), float64(timedAttempted)), "ratio"},
	}
	fill(m)
	r.named("failed_share", ratio(float64(timedFailed), float64(timedAttempted)), "ratio", timedAttempted)
	r.named("setup_s", m["setup_s"].Value, "s", len(setups))
	r.named("peak_rss_mb", m["peak_rss_mb"].Value, "MiB", 1)
	r.named("cpu_ms_per_req", m["cpu_ms_per_req"].Value, "ms", 1)
	r.named("max_rate_rps", maxRate, "req/s", 1)
	r.Metrics = m
}

// perLayer completes a traced run: self-time shares, the sum check, and
// the spans written to the build directory.
func (r *Report) perLayer(m map[string]float64, st SelfTimes, spans []Span, o opts) {
	for _, l := range layers {
		m["self."+l+"_share"] = ratio(float64(st.Layer[l]), float64(st.Root))
	}
	m["self.sum_error"] = st.SumError()
	if st.SumError() > selfTimeTolerance {
		r.invalid(fmt.Sprintf("self times sum to the root spans only within %.4f (tolerance %.2f)", st.SumError(), selfTimeTolerance))
	}
	selfMS := make(map[string]float64)
	for l, ns := range st.Layer {
		selfMS[l] = float64(ns) / 1e6
	}
	r.Detail["self_ms"] = selfMS
	r.Detail["root_ms"] = float64(st.Root) / 1e6
	r.Detail["self_time_tolerance"] = selfTimeTolerance
	r.Detail["spans"] = len(spans)
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", r.Workload, r.Seed))
	if err := writeSpans(path, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	} else {
		r.Detail["spans_file"] = path
	}
	r.Metrics = make(map[string]Metric, len(perLayerDefs))
	for _, d := range perLayerDefs {
		r.Metrics[d.name] = Metric{m[d.name], d.unit}
	}
}

// print writes the human-readable summary, the record, and last the result
// line a caller parses.
func (r *Report) print(w io.Writer, o opts) error {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  commit %s  go %s  nproc %d  GOMAXPROCS %d  cpu %q\n",
		r.Workload, r.Seed, r.Trace, r.Env.Commit, r.Env.GoVersion, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.CPUModel)
	names := make([]string, 0, len(r.Named))
	for n := range r.Named {
		names = append(names, n)
	}
	sort.Strings(names)
	if !r.Trace {
		for _, n := range names {
			im := r.Named[n]
			fmt.Fprintf(w, "  %-22s %14.6g %-8s (samples %d)\n", n, im.Value, im.Unit, im.Samples)
		}
	}
	for _, d := range append(endToEndDefs, perLayerDefs...) {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	for _, reason := range r.Invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", reason)
	}
	rec, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("record-%s-seed%d-trace%d-%s.json", r.Workload, r.Seed, b2i(r.Trace), time.Now().UTC().Format("20060102T150405")))
	if err := os.WriteFile(path, append(rec, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", path)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Wrong == 0, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
