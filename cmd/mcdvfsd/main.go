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
// itself with -advertise. A request whose key owner sheds, stalls or is
// unreachable is answered by the node that received it:
//
//	mcdvfsd -addr :8080 -advertise http://node-a:8080 \
//	        -peers http://node-a:8080,http://node-b:8080,http://node-c:8080
//
// SIGINT/SIGTERM drains gracefully in either mode: the listener closes,
// and requests already accepted get -drain to finish. In cluster mode the
// other nodes then answer this node's keys themselves, as they answer any
// owner they cannot reach. A second signal exits at once.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"mcdvfs/internal/cliutil"
	"mcdvfs/internal/cluster"
	"mcdvfs/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run parses args, serves until SIGINT or SIGTERM and drains. It returns
// the exit status: 0 for a clean drain or -h, 1 for a configuration the
// daemon cannot serve, a failed listen or a drain that outlived -drain,
// and 2 for a flag the command does not define or cannot parse, as
// flag.ExitOnError would.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcdvfsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	poolSize := fs.Int("pool", 2, "concurrent grid collections")
	queueDepth := fs.Int("queue", 8, "admissions waiting behind a full pool before shedding (-1 = none)")
	lruSize := fs.Int("lru", serve.DefaultMaxBenchmarks,
		"grids kept resident, least recently used evicted first (a benchmark cached in both spaces takes two; in cluster mode, per node)")
	collectWorkers := fs.Int("collect-workers", 0, "worker pool inside one collection (0 = all cores)")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown grace period")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses, sent in whole seconds rounded up")
	peers := fs.String("peers", "", "comma-separated base URLs of every cluster member (empty = single-node)")
	advertise := fs.String("advertise", "", "this node's own base URL; must appear in -peers")
	timeout := fs.Duration("timeout", 0, "per-request deadline: a request still working after this long answers 504 (0 = none)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	logger := log.New(stderr, "", log.LstdFlags)
	h, err := handler(logger, *addr, *peers, *advertise, serve.Config{
		CollectWorkers: *collectWorkers,
		PoolSize:       *poolSize,
		QueueDepth:     *queueDepth,
		MaxBenchmarks:  *lruSize,
		RequestTimeout: *timeout,
		RetryAfter:     *retryAfter,
	})
	if err == nil {
		ctx, stop := cliutil.Context(0)
		defer stop()
		err = serve.ListenAndDrain(ctx, *addr, h, *drain)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mcdvfsd:", err)
		return 1
	}
	logger.Printf("mcdvfsd drained cleanly")
	return 0
}

// handler builds what the daemon serves: a single daemon when peers is
// empty, otherwise this node of the ring.
func handler(logger *log.Logger, addr, peers, advertise string, serveCfg serve.Config) (http.Handler, error) {
	if peers == "" {
		srv, err := serve.New(serveCfg)
		if err != nil {
			return nil, err
		}
		logger.Printf("mcdvfsd listening on %s (pool %d, queue %d, lru %d)",
			addr, serveCfg.PoolSize, serveCfg.QueueDepth, serveCfg.MaxBenchmarks)
		return srv.Handler(), nil
	}

	peerMap, err := parsePeers(peers)
	if err != nil {
		return nil, err
	}
	if advertise == "" {
		return nil, fmt.Errorf("cluster mode needs -advertise (this node's URL from the -peers list)")
	}
	node, err := cluster.NewNode(cluster.Config{
		Self:  strings.TrimRight(advertise, "/"),
		Peers: peerMap,
		Serve: serveCfg,
	})
	if err != nil {
		return nil, err
	}
	logger.Printf("mcdvfsd listening on %s as %s (ring of %d)", addr, node.ID(), node.Ring().Len())
	return node.Handler(), nil
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
