package analysis

// Edge cases of the //lint:allow grammar and its two-line window, exercised
// directly against collectSuppressions/filter on synthetic sources: the
// window semantics are a contract (a waiver reaches its own line and the
// line below, never further), and these tests pin the corners the fixture
// goldens do not reach.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestWaiverAboveMultilineStatement(t *testing.T) {
	// The waiver sits directly above a statement that spans lines 6-9. A
	// diagnostic at the statement's first line (where checks report calls
	// and comparisons) is inside the window; one at a continuation line is
	// not — the window is two lines, not "the whole statement".
	src := `package p

func f(a, b float64) bool {
	var eq bool
	//lint:allow units both operands are dimensionless
	eq = a ==
		b
	return eq
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "edge.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	known := map[string]bool{"units": true}
	sup, waivers, bad := collectSuppressions(fset, []*ast.File{f}, known)
	if len(bad) != 0 {
		t.Fatalf("unexpected lint diagnostics: %v", bad)
	}
	if len(waivers) != 1 || waivers[0].Check != "units" {
		t.Fatalf("waivers = %v, want one units", waivers)
	}
	firstLine := Diagnostic{File: "edge.go", Line: 6, Check: "units", Message: "x"}
	contLine := Diagnostic{File: "edge.go", Line: 7, Check: "units", Message: "x"}
	got := sup.filter([]Diagnostic{firstLine, contLine}, nil)
	if len(got) != 1 || got[0].Line != 7 {
		t.Errorf("filter kept %v; want only the continuation-line diagnostic (line 7)", got)
	}
}

func TestTwoWaiversDifferentChecksOneLine(t *testing.T) {
	// A standalone directive above the statement and a trailing directive on
	// the statement both cover the same code line, for different checks.
	src := `package p

func f(a, b float64) error {
	//lint:allow units both operands are dimensionless
	_ = a == b //lint:allow errflow best-effort probe
	return nil
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "edge.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	known := map[string]bool{"units": true, "errflow": true}
	sup, waivers, bad := collectSuppressions(fset, []*ast.File{f}, known)
	if len(bad) != 0 {
		t.Fatalf("unexpected lint diagnostics: %v", bad)
	}
	if len(waivers) != 2 {
		t.Fatalf("got %d waivers, want 2: %v", len(waivers), waivers)
	}
	ds := []Diagnostic{
		{File: "edge.go", Line: 5, Check: "units", Message: "x"},
		{File: "edge.go", Line: 5, Check: "errflow", Message: "y"},
		{File: "edge.go", Line: 5, Check: "ctx", Message: "z"}, // no waiver for ctx
	}
	used := map[allowKey]bool{}
	got := sup.filter(ds, used)
	if len(got) != 1 || got[0].Check != "ctx" {
		t.Errorf("filter kept %v; want only the unwaived ctx diagnostic", got)
	}
	if len(used) != 2 {
		t.Errorf("used = %v; want both waiver keys marked consumed", used)
	}
}

func TestMalformedReasonVariants(t *testing.T) {
	// Reason grammar corners: missing reason, whitespace-only reason, and a
	// near-miss prefix that is not our directive at all.
	src := `package p

//lint:allow units
//lint:allow units
//lint:allowance is a different word entirely
const V = 1
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "edge.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	known := map[string]bool{"units": true}
	sup, waivers, bad := collectSuppressions(fset, []*ast.File{f}, known)
	if len(waivers) != 0 {
		t.Errorf("malformed directives produced waivers: %v", waivers)
	}
	if len(sup) != 0 {
		t.Errorf("malformed directives suppress: %v", sup)
	}
	if len(bad) != 2 {
		t.Fatalf("got %d lint diagnostics, want 2 (the //lint:allowance line is not ours): %v", len(bad), bad)
	}
	for _, d := range bad {
		if d.Check != LintCheckName {
			t.Errorf("diagnostic %v not under the lint pseudo-check", d)
		}
		if !strings.Contains(d.Message, "reason") {
			t.Errorf("diagnostic %q does not explain the missing reason", d.Message)
		}
	}
}

func TestStaleWaiverForNewlyAddedCheck(t *testing.T) {
	// A waiver can predate the check it names: hotpath entered the suite
	// after //lint:allow grew its vocabulary from the suite's check list, so
	// a speculative (or left-behind) hotpath waiver becomes evaluable the
	// moment the new check first covers its file — and must go stale then,
	// not be grandfathered.
	opts := Options{Patterns: []string{"./testdata/src/stalenewcheck"}, ScopeAll: true}
	diags, err := Run(opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	stale := false
	for _, d := range diags {
		if d.Check == LintCheckName && strings.Contains(d.Message, "stale lint:allow hotpath") {
			stale = true
		}
	}
	if !stale {
		t.Errorf("hotpath waiver with nothing to absorb not reported stale; diagnostics: %v", diags)
	}

	// Disabling the newly added check removes the evidence, not the waiver:
	// staleness must not be claimed for a check that did not run.
	disabled := opts
	disabled.Disable = map[string]bool{"hotpath": true}
	diags, err = Run(disabled)
	if err != nil {
		t.Fatalf("Run(disable hotpath): %v", err)
	}
	for _, d := range diags {
		if d.Check == LintCheckName && strings.Contains(d.Message, "stale") {
			t.Errorf("waiver called stale while its check was disabled: %v", d)
		}
	}

	// The -waivers inventory force-enables every check (liveness is only
	// meaningful if the check ran), so it marks the waiver stale even when
	// the caller's options disable the new check.
	ws, err := ListWaivers(opts)
	if err != nil {
		t.Fatalf("ListWaivers: %v", err)
	}
	if len(ws) != 1 || ws[0].Check != "hotpath" || !ws[0].Stale {
		t.Errorf("inventory = %+v; want the single hotpath waiver marked stale", ws)
	}
	if ws, err = ListWaivers(disabled); err != nil {
		t.Fatalf("ListWaivers(disable hotpath): %v", err)
	}
	if len(ws) != 1 || !ws[0].Stale {
		t.Errorf("inventory under -disable = %+v; want staleness still computed (ListWaivers force-enables checks)", ws)
	}
}

func TestWaiverInsideFixturePackage(t *testing.T) {
	// Fixture packages are analyzed with ScopeAll like any other source; a
	// waiver inside one must suppress there too — the goleakfix fixture
	// carries a waived go statement that must not surface, while the
	// unwaived launches on other lines still do.
	diags, err := Run(Options{
		Patterns: []string{"./testdata/src/goleakfix"},
		ScopeAll: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sawGoleak := false
	for _, d := range diags {
		if d.Check != "goleak" {
			continue
		}
		sawGoleak = true
		if d.Line == 42 {
			t.Errorf("waived goroutine launch reported anyway: %v", d)
		}
	}
	if !sawGoleak {
		t.Fatalf("fixture produced no goleak diagnostics at all; positive cases are broken")
	}
}
