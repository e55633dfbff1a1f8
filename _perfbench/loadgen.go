package main

// The open-loop generator. A dispatcher wakes at each request's due time
// and hands it to its own goroutine; at most inflightCap requests hold a
// connection at once, so when the daemon falls behind, due requests queue
// in the generator (the backlog) and their wait counts in their latency,
// which is always timed from the due time.

import (
	"bytes"
	"context"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptrace"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcdvfs/internal/cluster"
)

const (
	// reqHeader carries the request ID of a traced request, so spans
	// recorded inside the daemons join the generator's spans.
	reqHeader = "X-Perfbench-Req"
	// backlogEvery is the backlog sampling interval.
	backlogEvery = 20 * time.Millisecond
	// leadIn delays the first due time so the dispatcher starts on time.
	leadIn = 20 * time.Millisecond
)

// Result is one completed request.
type Result struct {
	Kind   Kind
	Target int
	Status int  // 0: transport error
	Wrong  bool // 200 with a body that is not the expected one
	LatMS  float64
	LateMS float64
	WaitMS float64 // due time to connection acquired
	Reused bool
	Node   string // X-MCDVFS-Node of the response
	Bytes  int
}

// Failed reports whether the request counts as a failed operation.
func (r Result) Failed() bool { return r.Status < 200 || r.Status > 299 || r.Wrong }

// PhaseRun is the outcome of one open-loop phase.
type PhaseRun struct {
	Results []Result
	Backlog []int   // due-but-unsent requests, sampled every backlogEvery
	Stolen  float64 // share of runnable CPU time the hypervisor took (stolenShare)
	Wall    time.Duration
	CPU     time.Duration // process user+sys CPU over the phase
}

// latencies returns the due-to-last-byte latencies of the successful
// requests of kind k, in schedule order.
func (p PhaseRun) latencies(k Kind) []float64 {
	var out []float64
	for _, r := range p.Results {
		if r.Kind == k && !r.Failed() {
			out = append(out, r.LatMS)
		}
	}
	return out
}

func (p PhaseRun) failed() int {
	n := 0
	for _, r := range p.Results {
		if r.Failed() {
			n++
		}
	}
	return n
}

func (p PhaseRun) wrong() int {
	n := 0
	for _, r := range p.Results {
		if r.Wrong {
			n++
		}
	}
	return n
}

// generator issues scheduled requests against one or more targets.
type generator struct {
	client  *http.Client
	targets []string
	cap     int
	oracle  *oracle
	tracer  *Tracer
}

func newGenerator(targets []string, inflightCap int, o *oracle, tr *Tracer) *generator {
	transport := &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: inflightCap,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	return &generator{
		client:  &http.Client{Transport: transport, Timeout: 60 * time.Second},
		targets: targets,
		cap:     inflightCap,
		oracle:  o,
		tracer:  tr,
	}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

type prepared struct {
	method, path string
	body         []byte
	want         expect
}

func (g *generator) prepare(reqs []Req) []prepared {
	cache := make(map[string]prepared)
	out := make([]prepared, len(reqs))
	for i, r := range reqs {
		key := r.Key()
		p, ok := cache[key]
		if !ok {
			p.method, p.path, p.body = r.httpRequest()
			p.want = g.oracle.bodies[key]
			cache[key] = p
		}
		out[i] = p
	}
	return out
}

// run drives one phase: every request is sent at its due time (or as soon
// after as an in-flight slot frees), and the phase ends when the last one
// completes. With traced set, requests carry their ID and the generator
// records the loadgen and http spans of each; firstID offsets the IDs so
// that phases do not collide.
func (g *generator) run(ctx context.Context, reqs []Req, traced bool, firstID int64) PhaseRun {
	preps := g.prepare(reqs)
	results := make([]Result, len(reqs))
	sem := make(chan struct{}, g.cap)
	var started atomic.Int64
	var wg sync.WaitGroup

	cpu0, ticks0 := processCPU(), readCPUTicks()
	start := time.Now().Add(leadIn)
	stop := make(chan struct{})
	backlog := make(chan []int, 1)
	go func() {
		var samples []int
		tick := time.NewTicker(backlogEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				backlog <- samples
				return
			case now := <-tick.C:
				el := now.Sub(start)
				due := sort.Search(len(reqs), func(i int) bool { return reqs[i].Due > el })
				samples = append(samples, max(due-int(started.Load()), 0))
			}
		}
	}()
	for i := range reqs {
		due := start.Add(reqs[i].Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		dispatched := time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := &results[i]
			res.Kind, res.Target = reqs[i].Kind, reqs[i].Target
			res.LateMS = ms(dispatched.Sub(due))
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			started.Add(1)
			g.send(ctx, preps[i], reqs[i].Target, due, res, traced, firstID+int64(i))
			<-sem
		}(i)
	}
	wg.Wait()
	close(stop)
	run := PhaseRun{Results: results, Backlog: <-backlog, Wall: time.Since(start), CPU: processCPU() - cpu0, Stolen: stolenShare(ticks0, readCPUTicks())}
	return run
}

// send issues one request and checks its body against the oracle.
func (g *generator) send(ctx context.Context, p prepared, target int, due time.Time, res *Result, traced bool, id int64) {
	var gotConn time.Time
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		gotConn = time.Now()
		res.Reused = info.Reused
	}}
	var rd io.Reader
	if p.body != nil {
		rd = bytes.NewReader(p.body)
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), p.method, g.targets[target]+p.path, rd)
	if err != nil {
		return
	}
	if p.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traced {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	resp, err := g.client.Do(req)
	if err == nil {
		h := crc32.New(castagnoli)
		n, cerr := io.Copy(h, resp.Body)
		resp.Body.Close() // read-only body; the copy error is what matters
		if cerr == nil {
			res.Status = resp.StatusCode
			res.Bytes = int(n)
			res.Node = resp.Header.Get(cluster.HeaderNode)
			if res.Status == http.StatusOK {
				res.Wrong = int(n) != p.want.n || h.Sum32() != p.want.crc
			}
		}
	}
	end := time.Now()
	if gotConn.IsZero() {
		gotConn = end
	}
	res.LatMS = ms(end.Sub(due))
	res.WaitMS = ms(gotConn.Sub(due))
	if traced {
		g.tracer.add(Span{Req: id, Layer: "loadgen", Name: res.Kind.String(), Node: target, Start: g.tracer.at(due), End: g.tracer.at(end)})
		g.tracer.add(Span{Req: id, Layer: "http", Name: "client", Node: target, Start: g.tracer.at(gotConn), End: g.tracer.at(end)})
	}
}

// call sends one request immediately (set-up and warm-up traffic).
func (g *generator) call(ctx context.Context, r Req) Result {
	var res Result
	res.Kind, res.Target = r.Kind, r.Target
	g.send(ctx, g.prepare([]Req{r})[0], r.Target, time.Now(), &res, false, 0)
	return res
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
