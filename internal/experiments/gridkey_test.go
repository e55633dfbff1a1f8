package experiments

import (
	"context"
	"testing"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/workload"
)

func TestGridKeyHashStability(t *testing.T) {
	// Two independently constructed identical configurations must hash
	// identically — in particular across the pointer-typed OPP table, which
	// naive printf-based fingerprints would render as an address.
	a := gridKeyHash(sim.DefaultConfig(), freq.CoarseSpace())
	b := gridKeyHash(sim.DefaultConfig(), freq.CoarseSpace())
	if a != b {
		t.Errorf("identical configs hash %q vs %q", a, b)
	}
	if len(a) != 16 {
		t.Errorf("hash length %d, want 16", len(a))
	}
}

func TestGridKeyHashSeparation(t *testing.T) {
	base := gridKeyHash(sim.DefaultConfig(), freq.CoarseSpace())

	noiseless := sim.DefaultConfig()
	noiseless.MeasurementNoise = 0
	if gridKeyHash(noiseless, freq.CoarseSpace()) == base {
		t.Error("noise change did not change the hash")
	}

	little := sim.DefaultConfig()
	little.CPIFactor = 1.8
	if gridKeyHash(little, freq.CoarseSpace()) == base {
		t.Error("CPI-factor change did not change the hash")
	}

	if gridKeyHash(sim.DefaultConfig(), freq.FineSpace()) == base {
		t.Error("space change did not change the hash")
	}

	weak := sim.DefaultConfig()
	weak.CPUPower.PeakDynamicW *= 2
	if gridKeyHash(weak, freq.CoarseSpace()) == base {
		t.Error("power-model change did not change the hash")
	}
}

// TestGridKeyFormat pins the grid key's rendering, a wire format: the
// cluster routes by bench|space|hash.
func TestGridKeyFormat(t *testing.T) {
	l, err := NewLab()
	if err != nil {
		t.Fatal(err)
	}
	spaces := []struct {
		name, space string
		settings    *freq.Space
	}{
		{"", "coarse", freq.CoarseSpace()},
		{"coarse", "coarse", freq.CoarseSpace()},
		{"fine", "fine", freq.FineSpace()},
	}
	for _, bench := range workload.Names() {
		for _, sp := range spaces {
			k, err := l.Key(bench, sp.name)
			if err != nil {
				t.Fatalf("Key(%q, %q): %v", bench, sp.name, err)
			}
			hash := gridKeyHash(sim.DefaultConfig(), sp.settings)
			if got, want := k.String(), bench+"|"+sp.space+"|"+hash; got != want {
				t.Errorf("Key(%q, %q) = %q, want %q", bench, sp.name, got, want)
			}
		}
	}
	if _, err := l.Key("gobmk", "medium"); err == nil || err.Error() != `unknown space "medium" (use coarse or fine)` {
		t.Errorf("Key with an unknown space: err %v", err)
	}
	other := GridKey{Benchmark: "gobmk", Space: "coarse", Hash: "0000000000000000"}
	if _, err := l.GridFor(context.Background(), other); err == nil {
		t.Error("GridFor served a key with another platform's hash")
	}
}
