// Package cluster turns mcdvfsd into a multi-node service: a consistent-
// hash ring shards the grid keyspace (benchmark, space, platform-config
// hash) across peers, and a thin router in every node serves owned keys
// locally and proxies the rest to their owner, whose singleflight
// coalesces every caller of a key. A node whose owner sheds, stalls, is
// unreachable or is draining answers from its own Lab. See DESIGN.md §9.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-node vnode count. 192 points per node
// keeps the expected ownership imbalance across a handful of nodes within
// a few percent of uniform while the ring stays small enough that a
// lookup is one binary search over a few hundred points. (Measured on the
// 18-benchmark registry keyspace, weighting each benchmark by its sample
// count: 192 vnodes put the busiest of three nodes at ~40% of the load —
// a 2.5x ideal speedup — where 128 left it at 53%.)
const DefaultVirtualNodes = 192

// Ring is an immutable consistent-hash ring over opaque node IDs.
// Ownership is deterministic: the same IDs always produce the same ring,
// so every node in a static cluster computes identical routing without
// any coordination. IDs are typically advertise URLs in production and
// stable logical names in the test harness.
type Ring struct {
	ids    []string
	points []ringPoint // sorted by hash; ties broken by ID so order is total
}

type ringPoint struct {
	hash uint64
	id   string
}

// NewRing builds a ring over the given node IDs with DefaultVirtualNodes
// virtual points per node. IDs are deduplicated; at least one is
// required.
func NewRing(ids []string) (*Ring, error) {
	seen := make(map[string]bool, len(ids))
	uniq := make([]string, 0, len(ids))
	for _, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty node ID")
		}
		if !seen[id] {
			seen[id] = true
			uniq = append(uniq, id)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	sort.Strings(uniq)
	r := &Ring{ids: uniq, points: make([]ringPoint, 0, len(uniq)*DefaultVirtualNodes)}
	for _, id := range uniq {
		for v := 0; v < DefaultVirtualNodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", id, v)), id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
	return r, nil
}

// hash64 is fnv64a with a murmur-style 64-bit finalizer. Raw FNV of
// sequential short strings ("node3#0", "node3#1", ...) clusters badly —
// measured on a 4-node ring the last node's arc share came out 8%
// instead of 25% — and the finalizer's avalanche restores a near-uniform
// spread. Changing this function reassigns the whole keyspace; treat it
// as a frozen wire format (TestRingGoldenOwnership pins it).
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Nodes returns the ring's member IDs, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.ids))
	copy(out, r.ids)
	return out
}

// Len is the number of member nodes.
func (r *Ring) Len() int { return len(r.ids) }

// Owner returns the node that owns key: the first virtual point clockwise
// of the key's hash, wrapping past the top of the hash space.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].id
}
