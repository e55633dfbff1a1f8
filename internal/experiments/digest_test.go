package experiments

// The output pin: a digest of every registry runner's output on a default
// Lab, committed as a literal. A change to a grid, an analysis, a governor
// or a table's rendering changes a digest; a change that keeps every byte
// a runner writes keeps them all.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// expFMAProbe is math.Exp(0.01)'s bits on amd64's FMA path, the probe
// internal/trace's TestBuiltinGridDigests skips on: where Exp rounds
// otherwise, every grid, and so every table, differs in its last bits.
const expFMAProbe = 0x3ff0292a5d2f2227

// runnerOutputDigests are the first 8 bytes of the sha256 of each registry
// runner's output on a default Lab.
var runnerOutputDigests = map[string]string{
	"fig2":      "aff19a84e7dfa402",
	"fig3":      "f3b536844d3b4461",
	"fig4":      "70d17655c986a814",
	"fig5":      "f374bed6f3de73b7",
	"fig6":      "787c8fac294aeeba",
	"fig7":      "7d85c8d844e2f512",
	"fig8":      "655ad253965134ab",
	"fig9":      "08be8314f7a4b5b5",
	"fig10":     "553e0f59b379b995",
	"fig11":     "892e0eb3a0170e8d",
	"fig12":     "9a0a5a2463dd5def",
	"governors": "c93cbffabeeddbfa",
	"baselines": "b60b73367cf06e03",
	"cachesens": "c3d3a36c57b747bc",
	"lowpower":  "beafde6a94f60cbf",
	"imax":      "1f90481980ba55b2",
	"hetero":    "62e0d780d0374731",
	"pareto":    "f2027fc4acd4cbc1",
	"fastdvfs":  "08d165733046b593",
	"modelcmp":  "68b21f4d11614698",
}

func TestRunnerOutputDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("runs all 20 runners over 26 collected grids; the race detector makes that minutes")
	}
	if got := math.Float64bits(math.Exp(0.01)); got != expFMAProbe {
		t.Skipf("math.Exp(0.01) is %#x here, not %#x: this host's Exp rounds differently from the one the digests were taken on, so every grid differs in the last bits", got, expFMAProbe)
	}
	l, err := NewLab()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range Runners() {
		out, err := runOutput(l, r)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		sum := sha256.Sum256(out)
		if got, want := fmt.Sprintf("%x", sum[:8]), runnerOutputDigests[r.ID]; got != want {
			t.Errorf("%s: output digest %s, want %s", r.ID, got, want)
		}
	}
	if len(runnerOutputDigests) != len(Runners()) {
		t.Errorf("%d digests pinned for %d runners", len(runnerOutputDigests), len(Runners()))
	}
}
