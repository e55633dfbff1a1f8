// Command mcdvfsd serves the DVFS decision procedure over HTTP/JSON: grid
// characterization, budget-constrained optimal schedules, and the Emin and
// stability predictors, with request coalescing, admission control, and
// load shedding built in. See DESIGN.md §8 and README "Running the daemon".
//
// Usage:
//
//	mcdvfsd -addr :8080 -pool 2 -queue 8 -lru 16
//
// Multi-node mode shards the grid keyspace over a consistent-hash ring
// (DESIGN.md §9). Every node gets the same static -peers list and names
// itself with -advertise. A request whose key owner sheds, stalls, is
// unreachable or is draining is answered by the node that received it:
//
//	mcdvfsd -addr :8080 -advertise http://node-a:8080 \
//	        -peers http://node-a:8080,http://node-b:8080,http://node-c:8080
//
// SIGINT/SIGTERM drains gracefully: /healthz flips to 503, listeners
// close, and in-flight requests get -drain to finish. In cluster mode the
// drain is two-phase: the node first refuses newly proxied ring writes
// (with a draining hint, so the proxying node answers them itself) for
// -drain-hint, then closes the listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"mcdvfs/internal/cliutil"
	"mcdvfs/internal/cluster"
	"mcdvfs/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	poolSize := flag.Int("pool", 2, "concurrent grid collections")
	queueDepth := flag.Int("queue", 8, "admissions waiting behind a full pool before shedding (-1 = none)")
	lruSize := flag.Int("lru", serve.DefaultMaxBenchmarks,
		"grids kept resident, least recently used evicted first (a benchmark cached in both spaces takes two; in cluster mode, per node)")
	collectWorkers := flag.Int("collect-workers", 0, "worker pool inside one collection (0 = all cores)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown grace period")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses, sent in whole seconds rounded up")
	peers := flag.String("peers", "", "comma-separated base URLs of every cluster member (empty = single-node)")
	advertise := flag.String("advertise", "", "this node's own base URL; must appear in -peers")
	drainHint := flag.Duration("drain-hint", 250*time.Millisecond,
		"how long a draining node keeps refusing proxied writes before closing the listener (cluster mode)")
	timeout := flag.Duration("timeout", 0, "per-request deadline: a request still working after this long answers 504 (0 = none)")
	flag.Parse()

	serveCfg := serve.Config{
		CollectWorkers: *collectWorkers,
		PoolSize:       *poolSize,
		QueueDepth:     *queueDepth,
		MaxBenchmarks:  *lruSize,
		RequestTimeout: *timeout,
		RetryAfter:     *retryAfter,
	}
	err := run(*addr, serveCfg, *peers, *advertise, *drain, *drainHint)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdvfsd:", err)
		os.Exit(1)
	}
}

func run(addr string, serveCfg serve.Config, peers, advertise string, drain, drainHint time.Duration) error {
	ctx, stop := cliutil.Context(0)
	defer stop()

	if peers == "" {
		srv, err := serve.New(serveCfg)
		if err != nil {
			return err
		}
		log.Printf("mcdvfsd listening on %s (pool %d, queue %d, lru %d)",
			addr, serveCfg.PoolSize, serveCfg.QueueDepth, serveCfg.MaxBenchmarks)
		return finish(srv.Run(ctx, addr, drain))
	}

	peerMap, err := parsePeers(peers)
	if err != nil {
		return err
	}
	if advertise == "" {
		return fmt.Errorf("cluster mode needs -advertise (this node's URL from the -peers list)")
	}
	node, err := cluster.NewNode(cluster.Config{
		Self:      strings.TrimRight(advertise, "/"),
		Peers:     peerMap,
		DrainHint: drainHint,
		Serve:     serveCfg,
	})
	if err != nil {
		return err
	}
	log.Printf("mcdvfsd listening on %s as %s (ring of %d)", addr, node.ID(), node.Ring().Len())
	return finish(node.Run(ctx, addr, drain))
}

// parsePeers reads the static peer list. In production node IDs are the
// advertise URLs themselves, so the map is URL -> URL.
func parsePeers(spec string) (map[string]string, error) {
	out := make(map[string]string)
	for _, p := range strings.Split(spec, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" {
			continue
		}
		if !strings.HasPrefix(p, "http://") && !strings.HasPrefix(p, "https://") {
			return nil, fmt.Errorf("peer %q is not an http(s) URL", p)
		}
		out[p] = p
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-peers %q has no usable URLs", spec)
	}
	return out, nil
}

func finish(err error) error {
	switch {
	case err == nil, errors.Is(err, http.ErrServerClosed), errors.Is(err, context.Canceled):
		log.Printf("mcdvfsd drained cleanly")
		return nil
	default:
		return err
	}
}
