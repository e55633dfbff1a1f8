package cluster

// BenchmarkClusterGrid measures what the ring buys a steady-state
// deployment: aggregate grid-cache capacity. Every node runs with an LRU
// smaller than the 18-benchmark working set (MaxBenchmarks=8), and each
// iteration sweeps a schedule query (/v1/optimal — the paper's decision
// procedure, whose answer requires the benchmark's characterized grid)
// across the full registry, round-robin over the nodes. A single node
// thrashes: a sequential sweep over a too-small LRU is the adversarial
// case, every request evicts what the next one needs, so every query
// pays a full grid recollection. A 3-node ring shards the keyspace into
// per-node working sets that fit (≤8 keys each), so after warmup every
// query runs against a warm grid; the measured number still pays router
// and proxy costs on every request. The response memo is disabled
// (MemoSize=1) so the benchmark pins the grid path, not memoization; on
// multi-core hosts the ring additionally collects in parallel (one
// admission slot per node), but the capacity win is what is pinned here
// because it holds at any core count.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"mcdvfs/internal/serve"
	"mcdvfs/internal/workload"
)

func BenchmarkClusterGrid(b *testing.B) {
	for _, nodes := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			h, err := NewTestHarness(HarnessConfig{
				Nodes: nodes,
				Serve: serve.Config{
					PoolSize:       1,
					CollectWorkers: 1,
					QueueDepth:     64,
					MaxBenchmarks:  8,
					MemoSize:       1,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()

			benches := workload.Names()
			bodies := make([][]byte, len(benches))
			for i, bench := range benches {
				bodies[i], err = json.Marshal(serve.OptimalRequest{Benchmark: bench, Budget: 1.1})
				if err != nil {
					b.Fatal(err)
				}
			}
			client := &http.Client{}
			sweep := func() error {
				for j := range benches {
					resp, err := client.Post(h.URL(j%h.Len())+"/v1/optimal", "application/json", bytes.NewReader(bodies[j]))
					if err != nil {
						return err
					}
					_, err = io.Copy(io.Discard, resp.Body)
					//lint:allow errflow benchmark drains and closes a read-only body
					resp.Body.Close()
					if err != nil {
						return err
					}
					if resp.StatusCode != http.StatusOK {
						return fmt.Errorf("%s: status %d", benches[j], resp.StatusCode)
					}
				}
				return nil
			}

			// Warmup sweep: owners admit their shard into cache (or, for a
			// single node, establish the thrashing steady state).
			if err := sweep(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sweep(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterGridProxied measures the proxy hop on the ring's largest
// answers: /v1/grid for bzip2's coarse grid (2.15 MB), sent to a node of a
// 3-node harness that does not own the key. Every iteration pays the
// router, the forward, the owner's write of its kept body, the proxy's
// read of the peer body into one buffer of its Content-Length, and the
// relay; bytes per second count the body.
func BenchmarkClusterGridProxied(b *testing.B) {
	h, err := NewTestHarness(HarnessConfig{Nodes: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	const bench = "bzip2"
	owner := h.NodeFor(bench, "coarse")
	if owner < 0 {
		b.Fatal("no owner found")
	}
	url := h.URL((owner+1)%h.Len()) + "/v1/grid"
	body, err := json.Marshal(serve.GridRequest{Benchmark: bench})
	if err != nil {
		b.Fatal(err)
	}
	client := &http.Client{}
	fetch := func() (int64, error) {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		//lint:allow errflow benchmark drains and closes a read-only body
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get(HeaderNode) != nodeID(owner) {
			return 0, fmt.Errorf("status %d from %q, want 200 from owner %q", resp.StatusCode, resp.Header.Get(HeaderNode), nodeID(owner))
		}
		return n, nil
	}

	// Warm-up: the owner collects the grid, then keeps its body.
	n, err := fetch()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fetch(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fetch(); err != nil {
			b.Fatal(err)
		}
	}
}
