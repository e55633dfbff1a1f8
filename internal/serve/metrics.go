package serve

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"mcdvfs/internal/experiments"
)

// metrics is the daemon's counter set, exported in Prometheus text format
// by GET /metrics. Everything is a monotonic counter except the gauges
// noted; all fields are updated with atomics so the hot path never locks.
type metrics struct {
	requests atomic.Int64 // every HTTP request received
	inflight atomic.Int64 // gauge: requests currently being handled
	resp2xx  atomic.Int64
	resp4xx  atomic.Int64
	resp5xx  atomic.Int64
	shed     atomic.Int64 // 429 responses (subset of resp4xx)

	gridRequests     atomic.Int64 // /v1/grid and analysis-backed requests that asked the Lab for a grid
	gridCacheHits    atomic.Int64 // served from memory, incl. coalesced joins of in-flight collections
	gridCollections  atomic.Int64 // full collections executed
	gridColumns      atomic.Int64 // setting columns collected (progress hook)
	workloadCollects atomic.Int64 // uncached collections for inline user workloads
	gridBodyHits     atomic.Int64 // /v1/grid bodies answered from the Lab's kept copy

	optimalRequests atomic.Int64
	optimalMemoHits atomic.Int64
	benchEvictions  atomic.Int64 // grids the Lab's resident bound evicted (GridEvict)
}

// gridEvent is the experiments.WithGridObserver hook.
func (m *metrics) gridEvent(ev experiments.GridEvent) {
	switch ev.Kind {
	case experiments.GridHit:
		m.gridCacheHits.Add(1)
	case experiments.GridCollect:
		m.gridCollections.Add(1)
	case experiments.GridEvict:
		m.benchEvictions.Add(1)
	}
}

// collectProgress is the experiments.WithCollectProgress hook.
func (m *metrics) collectProgress(done, total int) { m.gridColumns.Add(1) }

// countResponse classifies a written status code.
func (m *metrics) countResponse(code int) {
	switch {
	case code >= 500:
		m.resp5xx.Add(1)
	case code >= 400:
		m.resp4xx.Add(1)
	default:
		m.resp2xx.Add(1)
	}
	if code == http.StatusTooManyRequests {
		m.shed.Add(1)
	}
}

// write renders the exposition text. Gauges that live outside the struct
// (pool occupancy, resident grids, kept body bytes) are passed in.
func (m *metrics) write(w io.Writer, collectRunning, collectQueued, cachedBenchmarks, gridBodyBytes int) {
	counter := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	gauge := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v)
	}
	counter("mcdvfsd_requests_total", m.requests.Load())
	counter("mcdvfsd_responses_2xx_total", m.resp2xx.Load())
	counter("mcdvfsd_responses_4xx_total", m.resp4xx.Load())
	counter("mcdvfsd_responses_5xx_total", m.resp5xx.Load())
	counter("mcdvfsd_shed_total", m.shed.Load())
	counter("mcdvfsd_grid_requests_total", m.gridRequests.Load())
	counter("mcdvfsd_grid_cache_hits_total", m.gridCacheHits.Load())
	counter("mcdvfsd_grid_collections_total", m.gridCollections.Load())
	counter("mcdvfsd_grid_columns_collected_total", m.gridColumns.Load())
	counter("mcdvfsd_workload_collections_total", m.workloadCollects.Load())
	counter("mcdvfsd_grid_body_hits_total", m.gridBodyHits.Load())
	counter("mcdvfsd_optimal_requests_total", m.optimalRequests.Load())
	counter("mcdvfsd_optimal_memo_hits_total", m.optimalMemoHits.Load())
	counter("mcdvfsd_bench_evictions_total", m.benchEvictions.Load())
	gauge("mcdvfsd_inflight_requests", m.inflight.Load())
	gauge("mcdvfsd_collections_running", int64(collectRunning))
	gauge("mcdvfsd_collections_queued", int64(collectQueued))
	gauge("mcdvfsd_cached_benchmarks", int64(cachedBenchmarks))
	gauge("mcdvfsd_grid_body_bytes", int64(gridBodyBytes))
}

// statusRecorder captures the status code written by a handler so the
// instrumentation middleware can classify it.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}
