package trace

// The grid-bit pin: a digest of every built-in benchmark's coarse and fine
// grid, as collected, committed as a literal. Any change to the model, the
// noise draw or the solver's float operations changes a digest; a change
// that keeps every bit keeps them all.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/workload"
)

// expFMAProbe is math.Exp(0.01)'s bits on amd64's FMA path (and wherever
// Exp rounds the same way). The non-FMA amd64 path gives …2226 here, and
// rounds about 1.5% of the noise exponents one ulp apart, so grids there
// differ from the committed digests.
const expFMAProbe = 0x3ff0292a5d2f2227

// builtinGridDigests are the first 8 bytes of gridDigest for every built-in
// benchmark, coarse then fine, collected with the default configuration.
var builtinGridDigests = map[string][2]string{
	"astar":      {"69e243842e095e48", "6b2978de37af1c23"},
	"bzip2":      {"fc511368d9d965c6", "3f3244a22ce31720"},
	"calculix":   {"e08fa3143bf18b2d", "3e7286a197726fd5"},
	"gcc":        {"c60be8ee01b06677", "9ad587a51a31eff1"},
	"gemsfdtd":   {"22259b239ceb1b47", "ce1fa2fa3da4ed7a"},
	"gobmk":      {"ee5576bef218c346", "6126904ddbfabd91"},
	"h264ref":    {"c90fbd8f99f2e10e", "1d6195c567906d76"},
	"hmmer":      {"94ac3066b17a9312", "33acde65616333eb"},
	"lbm":        {"027767455f727b35", "336192ff747e8192"},
	"leslie3d":   {"ff9ba9b7213e4a4a", "6a744f5208eecd16"},
	"libquantum": {"9c8ff3d8205e70f5", "e5a77128c6496ab1"},
	"mcf":        {"3db9c26bfead5763", "450a480630b43f5e"},
	"milc":       {"78bd2122ff9b1be0", "493af4a74447dfb8"},
	"namd":       {"140ead97df31a139", "bb71a29e2f1140bb"},
	"omnetpp":    {"0961c0126fdeabf9", "3d1a7fc3272a4063"},
	"povray":     {"cacc62ebefc4cf11", "3018ab5711173899"},
	"sjeng":      {"1180299ed925faab", "a8dd5d3b9c4df0ee"},
	"soplex":     {"94acd24c5d63f985", "a89e87d8605ee733"},
}

// gridDigest hashes g's settings and every cell's five float fields, as
// bits, in sample-major order.
func gridDigest(g *Grid) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, st := range g.Settings {
		put(float64(st.CPU))
		put(float64(st.Mem))
	}
	for _, row := range g.Data {
		for _, m := range row {
			put(m.TimeNS)
			put(m.CPUEnergyJ)
			put(m.MemEnergyJ)
			put(m.CPI)
			put(m.MPKI)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestBuiltinGridDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("collects 36 grids; the race detector makes that minutes")
	}
	if got := math.Float64bits(math.Exp(0.01)); got != expFMAProbe {
		t.Skipf("math.Exp(0.01) is %#x here, not %#x: this host's Exp rounds differently from the one the digests were taken on, so the noise and every grid differ in the last bits", got, expFMAProbe)
	}
	sys := sim.MustNew(sim.DefaultConfig())
	spaces := [2]*freq.Space{freq.CoarseSpace(), freq.FineSpace()}
	for _, name := range workload.Names() {
		var got [2]string
		for i, space := range spaces {
			g, err := CollectContext(context.Background(), sys, workload.MustByName(name), space, CollectOptions{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[i] = gridDigest(g)
		}
		if want, ok := builtinGridDigests[name]; !ok || got != want {
			t.Errorf("%s: grid digests (coarse, fine) = %q, want %q", name, got, want)
		}
	}
	if len(builtinGridDigests) != len(workload.Names()) {
		t.Errorf("%d digests pinned for %d built-in benchmarks", len(builtinGridDigests), len(workload.Names()))
	}
}
