package serve

// Daemon benchmarks, captured as BENCH_serve.json by `make bench-serve`.
// Three tiers of the request path: a memoized /v1/optimal answer (pure
// cache hit), a cached /v1/grid (serialization of a kept grid), and a
// forced recollection (the columnar engine behind admission control) — so
// the record tracks both the serving overhead and the collection hot path
// as seen through the daemon.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func newBenchServer(b *testing.B) (*Server, *httptest.Server) {
	b.Helper()
	s, err := New(Config{})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return s, ts
}

// post issues one POST and fails the benchmark on a non-200 answer. A 200
// body is discarded as it arrives, as a client streaming it onward would,
// so the benchmark times the server rather than its own buffering; any
// other status reads a short prefix of the body for the error message.
func post(b *testing.B, ts *httptest.Server, path string, body []byte) {
	b.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatalf("POST %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		b.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, msg)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
}

func marshal(b *testing.B, v any) []byte {
	b.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkServeOptimalMemoized measures the memoized /v1/optimal path:
// the steady-state cost of the daemon's most common request once the
// benchmark is characterized and the answer is in the memo.
func BenchmarkServeOptimalMemoized(b *testing.B) {
	_, ts := newBenchServer(b)
	body := marshal(b, OptimalRequest{Benchmark: "gobmk", Budget: 1.3})
	post(b, ts, "/v1/optimal", body) // warm: collect the grid, fill the memo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(b, ts, "/v1/optimal", body)
	}
}

// BenchmarkServeGridCached measures /v1/grid for an already-characterized
// benchmark: Lab cache hit plus full grid serialization.
func BenchmarkServeGridCached(b *testing.B) {
	_, ts := newBenchServer(b)
	body := marshal(b, GridRequest{Benchmark: "gobmk"})
	post(b, ts, "/v1/grid", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(b, ts, "/v1/grid", body)
	}
}

// BenchmarkServeGridCollect measures /v1/grid when every request must
// recollect: the columnar collection engine behind the daemon's admission
// pool. Forgetting the benchmark between iterations forces the miss.
func BenchmarkServeGridCollect(b *testing.B) {
	s, ts := newBenchServer(b)
	body := marshal(b, GridRequest{Benchmark: "gobmk"})
	post(b, ts, "/v1/grid", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.lab.Forget("gobmk")
		b.StartTimer()
		post(b, ts, "/v1/grid", body)
	}
}
