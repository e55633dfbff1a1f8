package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
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

func TestDiskCachePathSanitizesBenchmarkNames(t *testing.T) {
	d := diskCache{dir: t.TempDir()}
	p := d.path(GridKey{Benchmark: "../evil/bench name", Space: "coarse", Hash: "abc123"})
	// Separators and spaces are replaced, so the file always lands
	// directly inside the cache directory.
	if filepath.Dir(p) != d.dir {
		t.Errorf("cache path %q escapes directory %q", p, d.dir)
	}
	if strings.ContainsAny(filepath.Base(p), " /") {
		t.Errorf("unsanitized cache filename %q", filepath.Base(p))
	}
}

// TestGridKeyFormat pins the grid key's two renderings, which are wire
// and disk formats: the cluster routes by bench|space|hash and the disk
// cache stores <bench>-<space>-<hash>.grid.json.
func TestGridKeyFormat(t *testing.T) {
	l, err := NewLab()
	if err != nil {
		t.Fatal(err)
	}
	d := diskCache{dir: t.TempDir()}
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
			if got, want := d.path(k), filepath.Join(d.dir, bench+"-"+sp.space+"-"+hash+".grid.json"); got != want {
				t.Errorf("cache path %q, want %q", got, want)
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

// TestOutsideGridsRejected drives both doors by which a grid enters a lab
// from outside — a replica seed and a disk-cache load — with bodies that
// are not the key's grid. Each must be refused at the seed and recollected
// (once) and rewritten at the disk.
func TestOutsideGridsRejected(t *testing.T) {
	src, err := NewLab()
	if err != nil {
		t.Fatal(err)
	}
	encode := func(g *trace.Grid) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := g.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	grid := func(g *trace.Grid, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return encode(g)
	}
	valid := grid(src.Grid("gobmk"))
	var negative trace.Grid
	if err := json.Unmarshal(valid, &negative); err != nil {
		t.Fatal(err)
	}
	negative.Data[0][0].TimeNS = -1

	bad := []struct {
		name string
		body []byte
	}{
		{"truncated", valid[:len(valid)/2]},
		{"other benchmark", grid(src.Grid("milc"))},
		{"other space", grid(src.FineGrid("gobmk"))},
		{"negative time_ns", encode(&negative)},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			l, counts := countingLab(t, 0, WithGridCacheDir(t.TempDir()))
			k := l.key("gobmk", "coarse")
			if l.SeedGrid(k, tc.body) {
				t.Error("SeedGrid accepted the body")
			}
			if _, ok := l.PeekGrid(k); ok || l.ResidentGrids() != 0 {
				t.Errorf("a refused seed left %d grid(s) resident", l.ResidentGrids())
			}

			path := diskCache{dir: l.cacheDir}.path(k)
			if err := os.WriteFile(path, tc.body, 0o644); err != nil {
				t.Fatal(err)
			}
			g, err := l.Grid("gobmk")
			if err != nil {
				t.Fatal(err)
			}
			if n := flightCount(counts, "gobmk/coarse"); n != 1 {
				t.Errorf("%d collections, want 1", n)
			}
			stored, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stored, encode(g)) {
				t.Error("the cache file was not rewritten with the collected grid")
			}
		})
	}

	l, counts := countingLab(t, 0)
	k := l.key("gobmk", "coarse")
	if !l.SeedGrid(k, valid) {
		t.Fatal("SeedGrid refused a valid body")
	}
	if l.SeedGrid(k, valid) {
		t.Error("a second seed of a resident key was accepted")
	}
	g, err := l.Grid("gobmk")
	if err != nil {
		t.Fatal(err)
	}
	if n := flightCount(counts, "gobmk/coarse"); n != 0 || !bytes.Equal(encode(g), valid) {
		t.Errorf("%d collections after a seed, want 0 and the seeded grid", n)
	}
}
