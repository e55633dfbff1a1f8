package cluster

// Concurrent stress for the clusterMetrics counter set: many writers
// bumping every counter while /metrics-style renders run in parallel.
// Under `make loadtest-cluster` this executes with -race, so a plain
// read sneaking into write() or a torn counter shows up as a race
// report; without -race it still pins the snapshot semantics — every
// mid-flight render is internally sane and the final render is exact.

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"mcdvfs/internal/serve"
)

// counterNames maps exposition names to bump functions, covering the
// full counter set so a newly added counter that misses atomic access
// fails here instead of in production.
func metricsCounterOps(m *clusterMetrics) map[string]func() {
	return map[string]func(){
		"mcdvfsd_cluster_proxied_total":          func() { m.proxied.Add(1) },
		"mcdvfsd_cluster_forwarded_served_total": func() { m.forwardedServed.Add(1) },
		"mcdvfsd_cluster_proxy_errors_total":     func() { m.proxyErrors.Add(1) },
		"mcdvfsd_cluster_local_fallbacks_total":  func() { m.localFallbacks.Add(1) },
	}
}

func TestClusterMetricsConcurrentRender(t *testing.T) {
	const (
		writers = 32
		bumps   = 200
	)
	var m clusterMetrics
	ops := metricsCounterOps(&m)

	done := make(chan struct{})
	var renders sync.WaitGroup
	renders.Add(1)
	go func() {
		defer renders.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			// Render into Discard: the point is racing Load()s against
			// the writers, not the bytes.
			m.write(io.Discard, 3)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < bumps; n++ {
				for _, bump := range ops {
					bump()
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	renders.Wait()

	var buf bytes.Buffer
	m.write(&buf, 3)
	got, err := serve.ParseMetrics(&buf)
	if err != nil {
		t.Fatalf("ParseMetrics: %v", err)
	}
	for name := range ops {
		if got[name] != writers*bumps {
			t.Errorf("%s = %d after the join, want %d", name, got[name], writers*bumps)
		}
	}
	if got["mcdvfsd_cluster_nodes"] != 3 {
		t.Errorf("mcdvfsd_cluster_nodes = %d, want 3", got["mcdvfsd_cluster_nodes"])
	}
}

// TestClusterMetricsMonotonicUnderWriters interleaves full renders with
// the writer storm and requires every observed counter value to be
// monotonically non-decreasing and never past the final total — the
// observable contract of per-counter atomic snapshots (the render is a
// per-counter snapshot, not a cross-counter transaction).
func TestClusterMetricsMonotonicUnderWriters(t *testing.T) {
	const (
		writers = 32
		bumps   = 100
		samples = 50
	)
	var m clusterMetrics
	ops := metricsCounterOps(&m)

	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < bumps; n++ {
				for _, bump := range ops {
					bump()
				}
			}
		}()
	}

	last := make(map[string]int64)
	for s := 0; s < samples; s++ {
		var buf bytes.Buffer
		m.write(&buf, 0)
		got, err := serve.ParseMetrics(&buf)
		if err != nil {
			t.Fatalf("ParseMetrics (sample %d): %v", s, err)
		}
		for name := range ops {
			v := got[name]
			if v < last[name] {
				t.Fatalf("%s went backwards mid-flight: %d then %d", name, last[name], v)
			}
			if v > writers*bumps {
				t.Fatalf("%s = %d mid-flight, beyond the possible total %d", name, v, writers*bumps)
			}
			last[name] = v
		}
	}
	wg.Wait()

	var buf bytes.Buffer
	m.write(&buf, 0)
	got, err := serve.ParseMetrics(&buf)
	if err != nil {
		t.Fatalf("ParseMetrics (final): %v", err)
	}
	for name := range ops {
		if got[name] != writers*bumps {
			t.Errorf("%s = %d after the join, want %d", name, got[name], writers*bumps)
		}
	}
}
