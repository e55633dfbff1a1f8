package analysis_test

// Golden-file tests: each fixture package under testdata/src holds positive
// hits, suppressed hits, and clean near-misses for one check; the golden
// file pins the exact diagnostics (file:line:col, check, message) the suite
// must produce. Regenerate with:
//
//	go test ./internal/analysis -run TestFixtureGolden -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcdvfs/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// fixtures lists every fixture package and the check it exercises.
var fixtures = []string{"determfix", "unitfix", "ctxfix", "lintfix",
	"goleakfix", "errflowfix", "rangefix", "hotpathfix", "contractfix"}

// runFixture executes the whole suite, scope-free, over one fixture.
func runFixture(t *testing.T, name string, disable map[string]bool) string {
	t.Helper()
	diags, err := analysis.Run(analysis.Options{
		Patterns: []string{"./testdata/src/" + name},
		Disable:  disable,
		ScopeAll: true,
	})
	if err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	analysis.RelTo(diags, wd)
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestFixtureGolden(t *testing.T) {
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			got := runFixture(t, name, nil)
			golden := filepath.Join("testdata", "golden", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestFixturesHaveHitsAndSuppressions guards the fixtures themselves: every
// golden file must show at least one positive hit, and every fixture with a
// Waived case must prove the waiver actually suppressed (the waived line
// never appears).
func TestFixturesHaveHitsAndSuppressions(t *testing.T) {
	for _, name := range fixtures {
		got := runFixture(t, name, nil)
		if got == "" {
			t.Errorf("%s: fixture produced no diagnostics; positive cases are broken", name)
		}
		if strings.Contains(got, "Waived") {
			t.Errorf("%s: a //lint:allow waiver failed to suppress:\n%s", name, got)
		}
	}
}

func TestDisableSkipsCheck(t *testing.T) {
	got := runFixture(t, "rangefix", map[string]bool{"rangecheck": true})
	if strings.Contains(got, "[rangecheck]") {
		t.Errorf("disabled check still reported:\n%s", got)
	}
}

// BenchmarkVet measures the full-repository suite run — load, type-check,
// flow construction, every check — serial against the default worker pool.
// The parallel/serial ratio is the headline number for the driver's bounded
// worker pool; output determinism across the two is covered by the golden
// tests, which run through the same bucketed collection path.
func BenchmarkVet(b *testing.B) {
	cases := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // 0 = GOMAXPROCS
	}
	// Warm the process-wide stdlib importer so both variants measure the
	// module-level work the worker pool actually parallelizes, not the
	// one-time stdlib type-check.
	if _, err := analysis.Run(analysis.Options{
		Dir: filepath.Join("..", ".."), Patterns: []string{"./..."},
	}); err != nil {
		b.Fatal(err)
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				diags, err := analysis.Run(analysis.Options{
					Dir:      filepath.Join("..", ".."),
					Patterns: []string{"./..."},
					Workers:  bc.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(diags) != 0 {
					b.Fatalf("repo not clean under benchmark: %v", diags[0])
				}
			}
		})
	}
}

// BenchmarkAbsint isolates the abstract-interpretation tier: only the
// check that runs the interval fixpoint (rangecheck) and the
// purity-summary determinism check stay enabled, so the number
// tracks the cost of the absint engine itself — Prepare's interprocedural
// summary rounds plus the per-function analyses — over the whole module.
func BenchmarkAbsint(b *testing.B) {
	disable := map[string]bool{}
	for _, a := range analysis.Suite() {
		switch a.Name {
		case "rangecheck", "determinism":
		default:
			disable[a.Name] = true
		}
	}
	cases := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // 0 = GOMAXPROCS
	}
	if _, err := analysis.Run(analysis.Options{
		Dir: filepath.Join("..", ".."), Patterns: []string{"./..."},
	}); err != nil {
		b.Fatal(err)
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				diags, err := analysis.Run(analysis.Options{
					Dir:      filepath.Join("..", ".."),
					Patterns: []string{"./..."},
					Disable:  disable,
					Workers:  bc.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(diags) != 0 {
					b.Fatalf("repo not clean under benchmark: %v", diags[0])
				}
			}
		})
	}
}

// TestWorkersDeterministicJSON pins the scheduler-independence contract
// end to end: the JSON rendering of the full diagnostic set — the same
// bytes mcdvfsvet -json emits — is identical no matter how many workers
// ran the passes, including the Prepare-computed interprocedural state the
// abstract-interpretation checks read concurrently.
func TestWorkersDeterministicJSON(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	runJSON := func(workers int) []byte {
		diags, err := analysis.Run(analysis.Options{
			Patterns: []string{
				"./testdata/src/rangefix",
				"./testdata/src/determfix", "./testdata/src/goleakfix",
				"./testdata/src/contractfix",
			},
			ScopeAll: true,
			Workers:  workers,
		})
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		analysis.RelTo(diags, wd)
		b, err := json.Marshal(diags)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := runJSON(1)
	if !strings.Contains(string(serial), "rangecheck") {
		t.Fatalf("serial run missing expected findings:\n%s", serial)
	}
	for _, w := range []int{2, 8} {
		if got := runJSON(w); !bytes.Equal(serial, got) {
			t.Errorf("workers=%d output differs from serial\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				w, serial, w, got)
		}
	}
}

// TestWaiversSortedInventory pins the -waivers inventory order: file, then
// line, then check — the contract consumers diffing two inventories rely
// on.
func TestWaiversSortedInventory(t *testing.T) {
	ws, err := analysis.ListWaivers(analysis.Options{
		Dir:      filepath.Join("..", ".."),
		Patterns: []string{"./..."},
	})
	if err != nil {
		t.Fatalf("ListWaivers: %v", err)
	}
	if len(ws) < 2 {
		t.Fatalf("repo has %d waivers; the ordering test needs at least 2", len(ws))
	}
	for i := 1; i < len(ws); i++ {
		a, b := ws[i-1], ws[i]
		if a.File > b.File ||
			(a.File == b.File && a.Line > b.Line) ||
			(a.File == b.File && a.Line == b.Line && a.Check > b.Check) {
			t.Errorf("waivers out of order at %d: %s:%d [%s] before %s:%d [%s]",
				i, a.File, a.Line, a.Check, b.File, b.Line, b.Check)
		}
	}
}

// TestRepoCleanAtHead is the smoke test the Makefile's lint tier promises:
// the suite exits clean on the repository as committed. Every intentional
// exactness or scoping decision must carry its waiver; a failure here is
// either a real regression or a missing reason.
func TestRepoCleanAtHead(t *testing.T) {
	diags, err := analysis.Run(analysis.Options{
		Dir:      filepath.Join("..", ".."),
		Patterns: []string{"./..."},
	})
	if err != nil {
		t.Fatalf("Run(./...): %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
