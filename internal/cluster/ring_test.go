package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRingGoldenOwnership pins the ring function itself: the same IDs and
// vnode count must route the same keys to the same owners on every node
// of every build, forever — ownership drift would strand every node's
// cache and split singleflight across the cluster. The table was
// generated once from the 18-benchmark registry keyspace at
// DefaultVirtualNodes; a failure here means the hash or point layout
// changed, which is a routing-compatibility break, not a refactor.
func TestRingGoldenOwnership(t *testing.T) {
	r, err := NewRing([]string{"node0", "node1", "node2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{
		"astar|coarse":      "node2",
		"astar|fine":        "node0",
		"bzip2|coarse":      "node0",
		"bzip2|fine":        "node0",
		"calculix|coarse":   "node2",
		"calculix|fine":     "node0",
		"gcc|coarse":        "node2",
		"gcc|fine":          "node2",
		"gemsfdtd|coarse":   "node2",
		"gemsfdtd|fine":     "node2",
		"gobmk|coarse":      "node2",
		"gobmk|fine":        "node2",
		"h264ref|coarse":    "node2",
		"h264ref|fine":      "node1",
		"hmmer|coarse":      "node2",
		"hmmer|fine":        "node2",
		"lbm|coarse":        "node2",
		"lbm|fine":          "node0",
		"leslie3d|coarse":   "node1",
		"leslie3d|fine":     "node1",
		"libquantum|coarse": "node1",
		"libquantum|fine":   "node2",
		"mcf|coarse":        "node2",
		"mcf|fine":          "node1",
		"milc|coarse":       "node2",
		"milc|fine":         "node0",
		"namd|coarse":       "node0",
		"namd|fine":         "node0",
		"omnetpp|coarse":    "node2",
		"omnetpp|fine":      "node0",
		"povray|coarse":     "node2",
		"povray|fine":       "node0",
		"sjeng|coarse":      "node1",
		"sjeng|fine":        "node0",
		"soplex|coarse":     "node2",
		"soplex|fine":       "node1",
	}
	for key, want := range golden {
		if got := r.Owner(key); got != want {
			t.Errorf("Owner(%q) = %q, want %q", key, got, want)
		}
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("NewRing(nil) succeeded, want error")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Error("NewRing with empty ID succeeded, want error")
	}
	r, err := NewRing([]string{"b", "a", "b"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Nodes(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Nodes() = %v, want deduplicated sorted [a b]", got)
	}
}

// TestRingKeyMovementOnJoin checks the property consistent hashing exists
// for: adding a node moves only the keys the new node takes, and that
// share is close to 1/new-size — it never reshuffles keys between
// surviving nodes.
func TestRingKeyMovementOnJoin(t *testing.T) {
	ids := []string{"node0", "node1", "node2"}
	before, err := NewRing(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewRing(append(ids, "node3"), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const keys = 10000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("bench%d|coarse|%016x", i, rng.Uint64())
		was, now := before.Owner(key), after.Owner(key)
		if was == now {
			continue
		}
		if now != "node3" {
			t.Fatalf("key %q moved %s -> %s: only the joining node may gain keys", key, was, now)
		}
		moved++
	}
	// The joiner should take about a quarter of the keyspace; allow a wide
	// band since 256 vnodes still carry a few percent imbalance.
	if frac := float64(moved) / keys; frac < 0.15 || frac > 0.35 {
		t.Errorf("join moved %.1f%% of keys, want roughly 25%%", 100*frac)
	}
}

// TestRingKeyMovementOnLeave is the inverse: removing a node reassigns
// only that node's keys.
func TestRingKeyMovementOnLeave(t *testing.T) {
	before, err := NewRing([]string{"node0", "node1", "node2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewRing([]string{"node0", "node2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("bench%d|fine|%016x", i, rng.Uint64())
		was, now := before.Owner(key), after.Owner(key)
		if was != "node1" && was != now {
			t.Fatalf("key %q moved %s -> %s although its owner stayed in the ring", key, was, now)
		}
		if was == "node1" && now == "node1" {
			t.Fatalf("key %q still owned by the removed node", key)
		}
	}
}
