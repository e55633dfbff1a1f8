package analysis

// The driver: load → prepare → run → suppress → sort. loadPackages
// (load.go) lists and type-checks the packages; every check's Prepare hook
// then runs once over the whole-module flow.Program, and the passes run in
// one loop, package by package, in go list's order. Suppression filtering,
// staleness and sorting follow, so a run's output depends only on the
// tree. cmd/mcdvfsvet is a thin flag-parsing shell over Run; tests call Run
// directly with ScopeAll to point every check at fixture packages.

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"sort"

	"mcdvfs/internal/analysis/flow"
)

// Options configures one driver run.
type Options struct {
	// Patterns are go package patterns, "./..." included. Empty defaults to
	// "./...".
	Patterns []string
	// Dir is where go list runs: it anchors module discovery and relative
	// patterns. "" means the current directory.
	Dir string
	// ScopeAll ignores every check's package scoping and test opt-in,
	// running everything everywhere. Fixture tests use it so a check can be
	// pointed at testdata packages whose import paths its scope would never
	// match.
	ScopeAll bool
}

// Run executes the suite and returns the surviving diagnostics in stable
// order. A non-nil error means the run itself failed (a package that does
// not compile, a bad pattern) — distinct from "found violations".
func Run(opts Options) ([]Diagnostic, error) {
	res, err := execute(opts)
	if err != nil {
		return nil, err
	}
	return res.diags, nil
}

// ListWaivers executes the suite and returns every //lint:allow directive in
// the matched packages, with staleness computed against the run's raw
// diagnostics.
func ListWaivers(opts Options) ([]Waiver, error) {
	res, err := execute(opts)
	if err != nil {
		return nil, err
	}
	return res.waivers, nil
}

// result is one run's full outcome.
type result struct {
	diags   []Diagnostic
	waivers []Waiver
}

func execute(opts Options) (*result, error) {
	fset, pkgs, module, err := loadPackages(opts)
	if err != nil {
		return nil, err
	}

	// The Program spans every module package go list reached — the matched
	// ones plus their transitive module dependencies — so call-graph
	// summaries cross package boundaries even when only one package is in
	// the pattern.
	var fpkgs []*flow.Package
	for _, p := range module {
		fpkgs = append(fpkgs, &flow.Package{Path: p.Path, Files: p.Syntax, Types: p.Types, Info: p.Info})
	}
	prog := flow.NewProgram(fset, fpkgs)

	suite := Suite()
	known := map[string]bool{LintCheckName: true}
	for _, a := range suite {
		known[a.Name] = true
	}

	// Suppressions merge across packages (keys carry filenames, so the merge
	// is collision-free); waivers and malformed-directive reports accumulate
	// in package order.
	sup := make(suppressions)
	var waivers []Waiver
	var lintDiags []Diagnostic
	for _, pkg := range pkgs {
		allFiles := append(append([]*ast.File(nil), pkg.Syntax...), pkg.TestSyntax...)
		s, w, bad := collectSuppressions(pkg.Fset, allFiles, known)
		for k := range s {
			sup[k] = true
		}
		waivers = append(waivers, w...)
		lintDiags = append(lintDiags, bad...)
	}

	for _, a := range suite {
		if a.Prepare != nil {
			a.Prepare(prog)
		}
	}

	// covered records which checks ran over which files, the precondition
	// for calling one of that file's waivers stale.
	covered := map[string]map[string]bool{}
	markCovered := func(check string, files []*ast.File) {
		for _, f := range files {
			name := fset.Position(f.Pos()).Filename
			if covered[name] == nil {
				covered[name] = map[string]bool{}
			}
			covered[name][check] = true
		}
	}

	// Each (package, check) pass's findings are filtered as it ends: waived
	// diagnostics drop out and mark their keys used; everything else
	// survives.
	used := map[allowKey]bool{}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range suite {
			src := opts.ScopeAll || a.Applies(pkg.Path)
			tests := opts.ScopeAll || (a.AnalyzeTests != nil && a.AnalyzeTests(pkg.Path))
			if !src && !tests {
				continue
			}
			if src {
				markCovered(a.Name, pkg.Syntax)
			}
			if tests {
				markCovered(a.Name, pkg.TestSyntax)
			}
			var raw []Diagnostic
			pass := &Pass{
				Pkg:          pkg,
				Prog:         prog,
				IncludeSrc:   src,
				IncludeTests: tests,
			}
			pass.report = func(d Diagnostic) {
				d.Check = a.Name
				raw = append(raw, d)
			}
			a.Run(pass)
			diags = append(diags, sup.filter(raw, used)...)
		}
	}

	// Staleness: a waiver whose check ran over its file but absorbed nothing
	// is dead weight. The lint pseudo-check itself is exempt (its
	// diagnostics — including these — are produced after filtering, so
	// liveness would be self-referential).
	for i := range waivers {
		w := &waivers[i]
		if w.Check == LintCheckName || !covered[w.File][w.Check] {
			continue
		}
		if used[allowKey{w.File, w.Line, w.Check}] || used[allowKey{w.File, w.Line + 1, w.Check}] {
			continue
		}
		w.Stale = true
		lintDiags = append(lintDiags, Diagnostic{
			File: w.File, Line: w.Line, Col: w.Col,
			Check:   LintCheckName,
			Message: fmt.Sprintf("stale lint:allow %s waiver: no %s finding on this or the next line", w.Check, w.Check),
		})
	}
	diags = append(diags, sup.filter(lintDiags, used)...)

	SortDiagnostics(diags)
	sort.Slice(waivers, func(i, j int) bool {
		a, b := waivers[i], waivers[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Check < b.Check
	})
	return &result{diags: diags, waivers: waivers}, nil
}

// RelTo rewrites diagnostic file paths relative to base where possible, for
// stable human-readable and golden output.
func RelTo(diags []Diagnostic, base string) {
	for i := range diags {
		if rel, err := filepath.Rel(base, diags[i].File); err == nil && !filepath.IsAbs(rel) {
			diags[i].File = filepath.ToSlash(rel)
		}
	}
}

// RelWaiversTo does the same for waiver listings.
func RelWaiversTo(ws []Waiver, base string) {
	for i := range ws {
		if rel, err := filepath.Rel(base, ws[i].File); err == nil && !filepath.IsAbs(rel) {
			ws[i].File = filepath.ToSlash(rel)
		}
	}
}
