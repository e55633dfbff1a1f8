package main

// The serving workloads: open-loop traffic against mcdvfsd daemons that run
// in this process and listen on loopback TCP. serve-hot and serve-miss use
// one serve.Server; cluster-ring builds a three-node ring from
// cluster.NewNode, as cluster.NewTestHarness does, so that every node's
// handler can be wrapped in the benchmark's span middleware.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mcdvfs/internal/cluster"
	"mcdvfs/internal/serve"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

// lateFraction is the share of a workload's latency limit that the
// generator's lateness p99 may reach before the run is flagged invalid: a
// later generator measured itself, not the daemon.
const lateFraction = 0.5

// servingSpec describes one serving workload.
type servingSpec struct {
	name        string
	rate        float64 // nominal, requests per second
	limitMS     float64 // /v1/optimal p99 limit
	nodes       int     // 1: one daemon; more: an in-process ring
	serveCfg    serve.Config
	schedule    ScheduleSpec // Rate and Count are filled per phase
	rungSeconds float64      // duration of one ladder rung
	warm        func(ctx context.Context, d *daemons, seed int64) error
}

func servingSpecs() map[string]servingSpec {
	headline := workload.HeadlineNames()
	all := workload.Names()
	return map[string]servingSpec{
		"serve-hot": {
			name: "serve-hot", rate: 250, limitMS: 100, nodes: 1,
			schedule:    ScheduleSpec{Mix: loadgenMix(), Pool: headline, ZipfS: 1.4, Budgets: []float64{1.3}, Targets: 1},
			rungSeconds: 1.2,
			warm:        warmWorkingSet(headline),
		},
		"serve-miss": {
			name: "serve-miss", rate: 70, limitMS: 100, nodes: 1,
			serveCfg:    serve.Config{MaxBenchmarks: 4},
			schedule:    ScheduleSpec{Mix: Mix{KOptimal: 1}, Pool: all, Budgets: budgetRange(100, 200), Targets: 1},
			rungSeconds: 1.6,
			warm:        warmUntilFull,
		},
		"cluster-ring": {
			name: "cluster-ring", rate: 250, limitMS: 100, nodes: 3,
			serveCfg:    serve.Config{MaxBenchmarks: 8},
			schedule:    ScheduleSpec{Mix: loadgenMix(), Pool: all, ZipfS: 1.4, Budgets: []float64{1.3}, Targets: 3},
			rungSeconds: 1.2,
			warm:        warmWorkingSet(all),
		},
	}
}

// ladderSeconds is the longest the ladder's bisection probes can take.
func (s servingSpec) ladderSeconds() float64 {
	return float64(bits.Len(ladderRungs)) * s.rungSeconds
}

// phaseSchedule generates count requests at rate.
func (s servingSpec) phaseSchedule(rate float64, count int, seed int64) []Req {
	spec := s.schedule
	spec.Rate, spec.Count = rate, count
	return generate(spec, seed)
}

// warmWorkingSet requests every working-set key once: each benchmark's
// grid and optimal answer, spread round-robin over the nodes, and each
// fixed small request.
func warmWorkingSet(pool []string) func(context.Context, *daemons, int64) error {
	return func(ctx context.Context, d *daemons, _ int64) error {
		var reqs []Req
		for i, b := range pool {
			reqs = append(reqs,
				Req{Kind: KGrid, Bench: b, Target: i % len(d.urls)},
				Req{Kind: KOptimal, Bench: b, Budget: 1.3, Target: i % len(d.urls)})
		}
		for t := range d.urls {
			for c := 0; c < 4; c++ {
				reqs = append(reqs, Req{Kind: KStability, Current: c, Target: t})
			}
			reqs = append(reqs, Req{Kind: KEmin, Target: t}, Req{Kind: KBenchmarks, Target: t})
		}
		return d.warmCalls(ctx, reqs)
	}
}

// warmUntilFull sends serve-miss traffic until the daemon's benchmark LRU
// holds MaxBenchmarks entries.
func warmUntilFull(ctx context.Context, d *daemons, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	all, budgets := workload.Names(), budgetRange(100, 200)
	for i := 0; i < 200; i++ {
		m, err := scrape(ctx, d.metricsClient, d.urls[0])
		if err != nil {
			return err
		}
		if m["mcdvfsd_cached_benchmarks"] >= int64(d.spec.serveCfg.MaxBenchmarks) {
			return nil
		}
		r := Req{Kind: KOptimal, Bench: all[rng.Intn(len(all))], Budget: budgets[rng.Intn(len(budgets))]}
		if err := d.warmCalls(ctx, []Req{r}); err != nil {
			return err
		}
	}
	return errors.New("serve-miss warm-up did not fill the benchmark cache")
}

// daemons is one running set-up: a daemon or a ring, listening on
// loopback, and the generator pointed at it.
type daemons struct {
	spec          servingSpec
	urls, nodeIDs []string
	servers       []*http.Server
	serveWG       sync.WaitGroup
	gen           *generator
	metricsClient *http.Client
	tracer        *Tracer
	warmFailed    int
	warmWrong     int
	warmReqs      int
}

// reqIDKey carries a traced request's ID in a handler's context, so the
// ring's proxy hop (which derives its request from that context) can pass
// it on.
type reqIDKey struct{}

func startDaemons(spec servingSpec, o *oracle, tr *Tracer) (*daemons, error) {
	d := &daemons{spec: spec, tracer: tr, metricsClient: &http.Client{Timeout: 10 * time.Second}}
	var lns []net.Listener
	fail := func(err error) (*daemons, error) {
		for _, l := range lns {
			l.Close()
		}
		return nil, err
	}
	for i := 0; i < spec.nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns = append(lns, ln)
		d.urls = append(d.urls, "http://"+ln.Addr().String())
	}
	handlers := make([]http.Handler, spec.nodes)
	if spec.nodes == 1 {
		cfg := spec.serveCfg
		cfg.CollectSpan = d.flightSpan(0)
		s, err := serve.New(cfg)
		if err != nil {
			return fail(err)
		}
		handlers[0] = s.Handler()
	} else {
		peers := make(map[string]string, spec.nodes)
		for i := range lns {
			d.nodeIDs = append(d.nodeIDs, fmt.Sprintf("node%d", i))
			peers[d.nodeIDs[i]] = d.urls[i]
		}
		for i := range lns {
			n, err := cluster.NewNode(cluster.Config{Self: d.nodeIDs[i], Peers: peers, Serve: spec.serveCfg})
			if err != nil {
				return fail(err)
			}
			handlers[i] = n.Handler()
		}
	}
	for i, ln := range lns {
		srv := &http.Server{Handler: d.middleware(i, handlers[i]), ReadHeaderTimeout: 10 * time.Second}
		d.servers = append(d.servers, srv)
		d.serveWG.Add(1)
		go func() {
			defer d.serveWG.Done()
			_ = srv.Serve(ln) // returns ErrServerClosed on Shutdown
		}()
	}
	d.gen = newGenerator(d.urls, runtime.NumCPU(), o, tr)
	return d, nil
}

// close shuts every listener down and waits for the servers to exit.
func (d *daemons) close() {
	d.gen.close()
	d.metricsClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range d.servers {
		_ = s.Shutdown(ctx) // a timeout leaves connections to Close below
		s.Close()
	}
	d.serveWG.Wait()
}

// warmCalls sends set-up requests one at a time, checking every answer.
func (d *daemons) warmCalls(ctx context.Context, reqs []Req) error {
	for _, r := range reqs {
		res := d.gen.call(ctx, r)
		d.warmReqs++
		if res.Failed() {
			d.warmFailed++
		}
		if res.Wrong {
			d.warmWrong++
		}
		if res.Status == 0 {
			return fmt.Errorf("%s warm-up %s: transport error", d.spec.name, r.Key())
		}
	}
	return nil
}

// flightSpan is the serve.Config.CollectSpan hook: while tracing it records
// each grid-cache flight (admission wait plus collection) as an
// experiments span, attributed to a request after the phase.
func (d *daemons) flightSpan(node int) func(bench, space string) func() {
	return func(bench, space string) func() {
		if !d.tracer.on.Load() {
			return func() {}
		}
		start := d.tracer.now()
		return func() {
			d.tracer.add(Span{Req: -1, Layer: "experiments", Name: bench, Node: node, Start: start, End: d.tracer.now()})
		}
	}
}

// middleware records, while tracing, one span per traced request a node
// handles: layer serve when the node answered itself, cluster when it
// proxied the request to the key's owner.
func (d *daemons) middleware(node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !d.tracer.on.Load() || r.Header.Get(reqHeader) == "" {
			h.ServeHTTP(w, r)
			return
		}
		id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := d.tracer.now()
		name := r.URL.Path
		if r.Method == http.MethodPost {
			body, err := io.ReadAll(r.Body)
			if err == nil {
				var probe struct{ Benchmark string }
				if json.Unmarshal(body, &probe) == nil && probe.Benchmark != "" {
					name = probe.Benchmark
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
		}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		layer := "serve"
		if served := w.Header().Get(cluster.HeaderNode); len(d.nodeIDs) > 0 && served != "" && served != d.nodeIDs[node] {
			layer = "cluster"
		}
		d.tracer.add(Span{Req: id, Layer: layer, Name: name, Node: node, Start: start, End: d.tracer.now()})
	})
}

// hopTransport wraps the transport the cluster nodes forward with (their
// clients use http.DefaultTransport): while tracing it passes a traced
// request's ID to the owner and records the hop as an http span that ends
// when the proxy has read and closed the owner's response.
type hopTransport struct {
	base   http.RoundTripper
	tracer *Tracer
}

func (t *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := req.Context().Value(reqIDKey{}).(int64)
	if !ok || !t.tracer.on.Load() {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	start := t.tracer.now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tracer.add(Span{Req: id, Layer: "http", Name: "hop", Start: start, End: t.tracer.now()})
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, done: func() {
		t.tracer.add(Span{Req: id, Layer: "http", Name: "hop", Start: start, End: t.tracer.now()})
	}}
	return resp, nil
}

type hopBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

var installHop sync.Once

// scrape reads one node's /metrics.
func scrape(ctx context.Context, c *http.Client, url string) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics returned %d", resp.StatusCode)
	}
	return serve.ParseMetrics(resp.Body)
}

// scrapeAll sums every node's counters.
func (d *daemons) scrapeAll(ctx context.Context) (map[string]int64, error) {
	total := make(map[string]int64)
	for _, u := range d.urls {
		m, err := scrape(ctx, d.metricsClient, u)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// sampleQueued polls the collection queue gauge until stop closes and
// returns the largest value seen on any node.
func (d *daemons) sampleQueued(ctx context.Context, stop <-chan struct{}) int64 {
	var peak int64
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return peak
		case <-tick.C:
			for _, u := range d.urls {
				if m, err := scrape(ctx, d.metricsClient, u); err == nil {
					peak = max(peak, m["mcdvfsd_collections_queued"])
				}
			}
		}
	}
}

func runServing(ctx context.Context, o opts, spec servingSpec) (*Report, error) {
	tr := newTracer()
	if spec.nodes > 1 {
		installHop.Do(func() { http.DefaultTransport = &hopTransport{base: http.DefaultTransport, tracer: tr} })
	}
	nominalSeconds := o.seconds.Seconds() - spec.ladderSeconds()
	if nominalSeconds < 1 {
		return nil, fmt.Errorf("%s needs more than %.1f s (the ladder alone takes %.1f s)", spec.name, o.seconds.Seconds(), spec.ladderSeconds())
	}
	nominal := spec.phaseSchedule(spec.rate, int(spec.rate*nominalSeconds), o.seed*1000+1)

	// Every key any phase can send, for the oracle.
	all := append([]Req(nil), nominal...)
	var rungs [][]Req
	for i := 1; i <= ladderRungs; i++ {
		rate := rungRate(spec.rate, i)
		rs := spec.phaseSchedule(rate, int(rate*spec.rungSeconds), o.seed*1000+10+int64(i))
		rungs = append(rungs, rs)
		all = append(all, rs...)
	}
	for _, b := range spec.schedule.Pool {
		if spec.schedule.Mix[KGrid] > 0 {
			all = append(all, Req{Kind: KGrid, Bench: b})
		}
		for _, budget := range spec.schedule.Budgets {
			all = append(all, Req{Kind: KOptimal, Bench: b, Budget: budget})
		}
	}
	for c := 0; c < 4; c++ {
		all = append(all, Req{Kind: KStability, Current: c})
	}
	all = append(all, Req{Kind: KEmin}, Req{Kind: KBenchmarks})
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(all, golden)
	if err != nil {
		return nil, err
	}

	rep := newReport(spec.name, o)
	rep.Params = map[string]any{
		"loop":                "open, Poisson arrivals",
		"nominal_rate_rps":    spec.rate,
		"nominal_requests":    len(nominal),
		"mix":                 map[string]int{"grid": spec.schedule.Mix[KGrid], "optimal": spec.schedule.Mix[KOptimal], "stability": spec.schedule.Mix[KStability], "emin": spec.schedule.Mix[KEmin], "benchmarks": spec.schedule.Mix[KBenchmarks]},
		"benchmarks":          spec.schedule.Pool,
		"zipf_s":              spec.schedule.ZipfS,
		"budgets":             fmt.Sprintf("%v..%v (%d values)", spec.schedule.Budgets[0], spec.schedule.Budgets[len(spec.schedule.Budgets)-1], len(spec.schedule.Budgets)),
		"space":               "coarse",
		"nodes":               spec.nodes,
		"max_benchmarks":      orDefault(spec.serveCfg.MaxBenchmarks, 16),
		"memo_size":           256,
		"collect_pool":        2,
		"collect_queue_depth": 8,
		"inflight_cap":        runtime.NumCPU(),
		"latency_limit_ms":    spec.limitMS,
		"latency_limit_on":    "/v1/optimal p99",
		"late_limit_ms":       lateFraction * spec.limitMS,
		"ladder":              fmt.Sprintf("nominal x %.2f^i, i=1..%d, bisection, %.1f s per rung", ladderStep, ladderRungs, spec.rungSeconds),
		"schedule_digest":     scheduleDigest(nominal),
		"setup_repeats":       setupRepeats,
		"latency_from":        "due time to last body byte",
	}
	fmt.Printf("schedule %s digest %s (%d requests)\n", spec.name, scheduleDigest(nominal), len(nominal))

	var d *daemons
	var setups []float64
	warmFailed, warmWrong, warmReqs := 0, 0, 0
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		d, err = startDaemons(spec, orc, tr)
		if err != nil {
			return nil, err
		}
		if err := spec.warm(ctx, d, o.seed*1000+2); err != nil {
			d.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		warmFailed, warmWrong, warmReqs = warmFailed+d.warmFailed, warmWrong+d.warmWrong, warmReqs+d.warmReqs
	}
	defer d.close()

	if o.trace {
		return tracedServing(ctx, o, rep, d, spec, nominal, orc, warmReqs, warmFailed, warmWrong)
	}

	run := d.gen.run(ctx, nominal, false, 0)
	attempted, failed, wrong := warmReqs+len(run.Results), warmFailed+run.failed(), warmWrong+run.wrong()
	nom := judgeRung(0, spec.rate, run, spec.limitMS)
	ladder := []Rung{nom}
	top := searchLadder(ladderRungs, func(i int) bool {
		rr := d.gen.run(ctx, rungs[i-1], false, 0)
		attempted, failed, wrong = attempted+len(rr.Results), failed+rr.failed(), wrong+rr.wrong()
		r := judgeRung(i, rungRate(spec.rate, i), rr, spec.limitMS)
		ladder = append(ladder, r)
		return r.Pass
	})
	if !nom.Pass {
		rep.invalid("the nominal rate itself fails the ladder conditions; max_rate_rps is then an upper bound")
	}
	rep.setCounts(attempted, failed)
	rep.Wrong = wrong
	rep.Detail["ladder"] = ladder
	completed := 0
	for _, r := range run.Results {
		if r.Status != 0 {
			completed++
		}
	}
	late := percentile(latesOf(run), 0.99)
	rep.Percentiles["loadgen_late_p99_ms"] = late
	if late.Value > lateFraction*spec.limitMS {
		rep.invalid(fmt.Sprintf("generator lateness p99 %.2f ms exceeds %.0f%% of the %.0f ms limit", late.Value, 100*lateFraction, spec.limitMS))
	}
	rep.endToEnd(setups, len(run.Results), run.failed(), rungRate(spec.rate, top), func(m map[string]Metric) {
		m["cpu_ms_per_req"] = Metric{ms(run.CPU) / float64(max(completed, 1)), "ms"}
	})
	rep.latency("optimal", run.latencies(KOptimal))
	rep.named("host_stolen_share", run.Stolen, "ratio", 1)
	if spec.schedule.Mix[KGrid] > 0 {
		rep.tail("grid", run.latencies(KGrid))
	}
	rep.Detail["nominal_wall_s"] = run.Wall.Seconds()
	return rep, nil
}

func latesOf(run PhaseRun) []float64 {
	out := make([]float64, 0, len(run.Results))
	for _, r := range run.Results {
		out = append(out, r.LateMS)
	}
	return out
}

func waitsOf(run PhaseRun) []float64 {
	out := make([]float64, 0, len(run.Results))
	for _, r := range run.Results {
		out = append(out, r.WaitMS)
	}
	return out
}

func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// tracedServing runs the nominal schedule's first half untraced (the
// overhead baseline) and its second half traced, and derives the
// per-layer metrics from the traced half.
func tracedServing(ctx context.Context, o opts, rep *Report, d *daemons, spec servingSpec, nominal []Req, orc *oracle, warmReqs, warmFailed, warmWrong int) (*Report, error) {
	half := len(nominal) / 2
	second := append([]Req(nil), nominal[half:]...)
	off := second[0].Due
	for i := range second {
		second[i].Due -= off
	}
	base := d.gen.run(ctx, nominal[:half], false, 0)

	before, err := d.scrapeAll(ctx)
	if err != nil {
		return nil, err
	}
	tr := d.tracer
	tr.take()
	rt0 := readRuntime()
	stop := make(chan struct{})
	queued := make(chan int64, 1)
	go func() { queued <- d.sampleQueued(ctx, stop) }()
	tr.on.Store(true)
	run := d.gen.run(ctx, second, true, 1)
	tr.on.Store(false)
	close(stop)
	queuedMax := <-queued
	rt1 := readRuntime()
	after, err := d.scrapeAll(ctx)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return float64(after[name] - before[name]) }

	rep.setCounts(warmReqs+len(base.Results)+len(run.Results), warmFailed+base.failed()+run.failed())
	rep.Wrong = warmWrong + base.wrong() + run.wrong()

	spans := tr.take()
	unattributed := attributeFlights(spans)
	var kept []Span
	var flights []float64
	for _, s := range spans {
		if s.Layer == "experiments" {
			flights = append(flights, float64(s.dur())/1e6)
		}
		if s.Req >= 0 {
			kept = append(kept, s)
		}
	}
	buildTrees(kept)
	st := selfTimes(kept)

	// Per-request handler and transport times from the trees.
	kids := make(map[int][]Span)
	for _, s := range kept {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	handler := map[Kind][]float64{}
	var gridTransfer []float64
	for _, s := range kept {
		if s.Layer == "serve" && s.Parent >= 0 {
			k := run.Results[s.Req-1].Kind
			handler[k] = append(handler[k], float64(s.dur())/1e6)
		}
		if s.Layer == "http" && s.Name == "client" && run.Results[s.Req-1].Kind == KGrid {
			gridTransfer = append(gridTransfer, float64(s.dur()-covered(s, kids[s.ID]))/1e6)
		}
	}

	nKeyed, keyed, proxied, reused := 0, 0, 0, 0
	var gridBytes int
	var proxiedGrid, localGrid []float64
	for _, r := range run.Results {
		isKeyed := r.Kind == KGrid || r.Kind == KOptimal
		if isKeyed {
			nKeyed++
		}
		if r.Reused {
			reused++
		}
		if r.Failed() {
			continue
		}
		if r.Kind == KGrid {
			gridBytes += r.Bytes
		}
		if isKeyed && len(d.nodeIDs) > 0 {
			keyed++
			remote := r.Node != d.nodeIDs[r.Target]
			if remote {
				proxied++
			}
			if r.Kind == KGrid {
				if remote {
					proxiedGrid = append(proxiedGrid, r.LatMS)
				} else {
					localGrid = append(localGrid, r.LatMS)
				}
			}
		}
	}
	nGrid := len(run.latencies(KGrid))

	var grids []*trace.Grid
	for _, b := range spec.schedule.Pool {
		if g, ok := orc.grids[b]; ok {
			grids = append(grids, g)
		}
	}
	enc, dec := codecCost(grids)
	n := float64(len(run.Results))
	baseOpt, runOpt := base.latencies(KOptimal), run.latencies(KOptimal)

	m := perLayerZero()
	rep.layerPct(m, "loadgen.late_p99_ms", latesOf(run), 0.99)
	rep.layerPct(m, "loadgen.conn_wait_p99_ms", waitsOf(run), 0.99)
	rep.layerPct(m, "http.grid_transfer_p50_ms", gridTransfer, 0.5)
	m["http.conn_reused_share"] = float64(reused) / n
	m["http.requests"] = n
	rep.layerPct(m, "serve.optimal_handler_p50_ms", handler[KOptimal], 0.5)
	rep.layerPct(m, "serve.optimal_handler_p99_ms", handler[KOptimal], 0.99)
	rep.layerPct(m, "serve.grid_handler_p50_ms", handler[KGrid], 0.5)
	rep.layerPct(m, "serve.grid_handler_p99_ms", handler[KGrid], 0.99)
	m["serve.grid_response_mb"] = ratio(float64(gridBytes)/1e6, float64(nGrid))
	m["serve.memo_hit_share"] = ratio(delta("mcdvfsd_optimal_memo_hits_total"), delta("mcdvfsd_optimal_requests_total"))
	m["serve.bench_evictions"] = delta("mcdvfsd_bench_evictions_total")
	m["serve.shed"] = delta("mcdvfsd_shed_total")
	m["serve.queued_max"] = float64(queuedMax)
	m["experiments.collections"] = delta("mcdvfsd_grid_collections_total")
	m["experiments.collect_share"] = ratio(delta("mcdvfsd_grid_collections_total"), float64(nKeyed))
	rep.layerPct(m, "experiments.flight_p50_ms", flights, 0.5)
	rep.layerPct(m, "experiments.flight_p99_ms", flights, 0.99)
	m["experiments.columns"] = delta("mcdvfsd_grid_columns_collected_total")
	m["cluster.proxied_share"] = ratio(float64(proxied), float64(keyed))
	rep.layerPct(m, "cluster.proxied_grid_p50_ms", proxiedGrid, 0.5)
	rep.layerPct(m, "cluster.local_grid_p50_ms", localGrid, 0.5)
	m["cluster.replica_seeds"] = delta("mcdvfsd_cluster_replica_seeds_total")
	m["cluster.inflight_waits"] = delta("mcdvfsd_cluster_inflight_waits_total")
	m["cluster.proxy_errors"] = delta("mcdvfsd_cluster_proxy_errors_total")
	m["cluster.stale_fallbacks"] = delta("mcdvfsd_cluster_stale_fallbacks_total")
	m["trace.encode_ms_per_mb"], m["trace.decode_ms_per_mb"] = enc, dec
	m["runtime.gc_cpu_share"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	m["runtime.alloc_mb_per_op"] = (rt1.allocBytes - rt0.allocBytes) / 1e6 / n
	m["overhead.optimal_p50_ms"] = median(runOpt) - median(baseOpt)
	m["overhead.optimal_p99_ms"] = percentile(runOpt, 0.99).Value - percentile(baseOpt, 0.99).Value
	m["overhead.cpu_ms_per_req"] = ms(run.CPU)/n - ms(base.CPU)/float64(len(base.Results))

	counts := map[string]int{
		"traced_requests": len(run.Results), "baseline_requests": len(base.Results),
		"optimal_handler_samples": len(handler[KOptimal]), "grid_handler_samples": len(handler[KGrid]),
		"grid_transfer_samples": len(gridTransfer), "flight_samples": len(flights),
		"unattributed_flights": unattributed, "keyed_requests": nKeyed,
		"proxied_grid_samples": len(proxiedGrid), "local_grid_samples": len(localGrid),
	}
	rep.Detail["sample_counts"] = counts
	rep.perLayer(m, st, kept, o)
	return rep, nil
}

// attributeFlights gives each flight span the request that owned it: the
// earliest-started request on the same node, for the same benchmark, whose
// handler was running when the flight began. It returns how many flights
// found no owner.
func attributeFlights(spans []Span) int {
	missing := 0
	for i := range spans {
		f := &spans[i]
		if f.Layer != "experiments" {
			continue
		}
		best := -1
		for j, s := range spans {
			if s.Layer == "serve" && s.Node == f.Node && s.Name == f.Name && s.Start <= f.Start && f.Start <= s.End {
				if best < 0 || s.Start < spans[best].Start {
					best = j
				}
			}
		}
		if best < 0 {
			missing++
			continue
		}
		f.Req = spans[best].Req
	}
	return missing
}

// codecCost times Grid.WriteJSON and trace.ReadJSON over the grids, in
// milliseconds per MB of JSON, repeating until at least 200 ms of encoding
// has been timed.
func codecCost(grids []*trace.Grid) (encMsPerMB, decMsPerMB float64) {
	if len(grids) == 0 {
		return 0, 0
	}
	var enc, dec time.Duration
	var bytesOut int
	for enc < 200*time.Millisecond {
		for _, g := range grids {
			var buf bytes.Buffer
			t0 := time.Now()
			if err := g.WriteJSON(&buf); err != nil {
				return 0, 0
			}
			t1 := time.Now()
			if _, err := trace.ReadJSON(bytes.NewReader(buf.Bytes())); err != nil {
				return 0, 0
			}
			enc, dec = enc+t1.Sub(t0), dec+time.Since(t1)
			bytesOut += buf.Len()
		}
	}
	mb := float64(bytesOut) / 1e6
	return ms(enc) / mb, ms(dec) / mb
}
