package analysis_test

// Golden-file tests: each fixture package under testdata/src holds positive
// hits, suppressed hits, and clean near-misses for one check; the golden
// file pins the exact diagnostics (file:line:col, check, message) the suite
// must produce. Regenerate with:
//
//	go test ./internal/analysis -run TestFixtureGolden -update

import (
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcdvfs/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// fixtures lists every fixture package and the check it exercises.
var fixtures = []string{"determfix", "ctxfix", "lintfix", "goleakfix", "errflowfix"}

// runFixture executes the whole suite, scope-free, over one fixture.
func runFixture(t *testing.T, name string) string {
	t.Helper()
	diags, err := analysis.Run(analysis.Options{
		Patterns: []string{"./testdata/src/" + name},
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
			got := runFixture(t, name)
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
		got := runFixture(t, name)
		if got == "" {
			t.Errorf("%s: fixture produced no diagnostics; positive cases are broken", name)
		}
		if strings.Contains(got, "Waived") {
			t.Errorf("%s: a //lint:allow waiver failed to suppress:\n%s", name, got)
		}
	}
}

// TestBuildConstraintsApply pins that the loader reads only the files the
// go command compiles: buildtagfix's other.go redeclares F behind
// //go:build ignore. The fixture has no hits, so it stays out of fixtures.
func TestBuildConstraintsApply(t *testing.T) {
	if got := runFixture(t, "buildtagfix"); got != "" {
		t.Errorf("buildtagfix produced diagnostics:\n%s", got)
	}
}

// TestSuiteNamesStable pins the check names: they are the //lint:allow
// vocabulary, so renaming one silently orphans every waiver.
func TestSuiteNamesStable(t *testing.T) {
	want := []string{"determinism", "ctx", "goleak", "errflow"}
	suite := analysis.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d checks, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("check %d named %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Applies == nil || a.Run == nil {
			t.Errorf("check %q is missing Doc, Applies or Run", a.Name)
		}
	}
}

// BenchmarkVet measures one whole-repository run of the suite: the go list
// call, type-checking, flow construction and every check.
func BenchmarkVet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		diags, err := analysis.Run(analysis.Options{
			Dir:      filepath.Join("..", ".."),
			Patterns: []string{"./..."},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("repo not clean under benchmark: %v", diags[0])
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
	// The loader learns which files a package has from go list, a
	// subprocess whose reads go test's result cache does not see. Listing
	// every directory here makes an added or removed file rerun this test
	// instead of replaying a cached pass.
	root := filepath.Join("..", "..")
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		return err
	})
	diags, err := analysis.Run(analysis.Options{
		Dir:      root,
		Patterns: []string{"./..."},
	})
	if err != nil {
		t.Fatalf("Run(./...): %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
