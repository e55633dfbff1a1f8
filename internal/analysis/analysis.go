// Package analysis is mcdvfs's in-tree static-analysis suite, built only on
// the go command and the standard library's go/ast, go/parser, go/types and
// go/importer (no x/tools — the repository stays a zero-dependency offline
// build).
//
// The paper's methodology rests on properties that ordinary tests cannot
// economically guard: every sample stream must be bit-reproducible (the
// parallel collection engine is verified byte-identical to the serial
// reference, which is only meaningful if no nondeterminism leaks into the
// sim/trace/dram/core paths), contexts must reach the work they cancel,
// goroutines must be joined, and errors must not be dropped. This package
// turns those review-folklore invariants into machine-checked gates. It
// has four checks: determinism, ctx, goleak and errflow. Each one catches
// a defect that go vet, the race detector and the tests let through;
// DESIGN.md §7 has the catalogue and the audits that decided it. Unit
// coherence (MHz vs ns, joules vs watts) is held by tests instead: the
// grid digests and the component models' timing and energy assertions.
//
// A check is an Analyzer: a named pass over one type-checked package.
// The driver in run.go loads packages (load.go), applies the per-check
// package scopes, filters diagnostics through //lint:allow suppressions
// (suppress.go), and renders text or JSON for cmd/mcdvfsvet.
//
// Loading goes through one `go list -e -deps -export` call, so the go
// command decides what a package is. A file a build constraint excludes is
// never read, as the go command does not read it. A package that does not
// compile fails the run (mcdvfsvet exits 2) with the go command's message.
// The `go` on PATH runs, and it must be the toolchain this package was
// built with, because the standard library is imported from that
// toolchain's export data.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"mcdvfs/internal/analysis/flow"
)

// Diagnostic is one finding, positioned and attributed to its check.
type Diagnostic struct {
	// Pos locates the finding. Valid diagnostics always carry a position.
	Pos token.Position `json:"-"`
	// File, Line, Col flatten Pos for -json output.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Check names the analyzer that produced the finding.
	Check string `json:"check"`
	// Message states the violated invariant, concretely.
	Message string `json:"message"`
}

// String renders the go-tool-style "file:line:col: [check] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Package is one loaded, type-checked package as the checks see it.
type Package struct {
	// Path is the import path ("mcdvfs/internal/sim").
	Path string
	// Fset positions every file below.
	Fset *token.FileSet
	// Syntax holds the parsed non-test files the build compiles, sorted by
	// filename.
	Syntax []*ast.File
	// TestSyntax holds the parsed _test.go files the build constraints
	// admit, sorted by filename, syntax only: test files are not
	// type-checked (they may form a separate external test package) so
	// checks that opt in via AnalyzeTests work purely on the AST.
	TestSyntax []*ast.File
	// Types and Info are the go/types results for Syntax.
	Types *types.Package
	Info  *types.Info
}

// Pass is one (analyzer, package) execution. Checks report findings through
// Reportf; the driver owns collection, suppression, and ordering.
type Pass struct {
	Pkg *Package
	// Prog indexes every function of every loaded module package — the
	// substrate for interprocedural checks. Every pass shares it, and it is
	// read-only after construction.
	Prog *flow.Program
	// IncludeSrc and IncludeTests tell the check which file sets are in
	// scope for this package: the driver resolves Applies/AnalyzeTests (a
	// check can cover a package's tests without covering its sources, as
	// determinism does for internal/experiments).
	IncludeSrc   bool
	IncludeTests bool
	report       func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Diagnostic{
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check.
type Analyzer struct {
	// Name is the identifier //lint:allow directives and -list use.
	Name string
	// Doc is a one-line description for -list.
	Doc string
	// Applies reports whether the check runs on the package with the given
	// import path. The driver consults it unless ScopeAll is set.
	Applies func(pkgPath string) bool
	// AnalyzeTests reports whether the check also wants the package's
	// _test.go files (AST only) for the given import path.
	AnalyzeTests func(pkgPath string) bool
	// Prepare, if set, runs once before any pass, with the whole-module
	// Program — the place to compute call-graph summaries the passes then
	// read.
	Prepare func(prog *flow.Program)
	// Run executes the check against one package.
	Run func(pass *Pass)
}

// Suite returns every analyzer in the canonical order. The order is part of
// the golden-test contract: diagnostics are reported per check, then by
// position.
func Suite() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		CtxAnalyzer(),
		GoLeakAnalyzer(),
		ErrFlowAnalyzer(),
	}
}

// SortDiagnostics orders diagnostics by file, line, column, then check, the
// stable order every consumer (text output, JSON, golden files) relies on.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}

// pkgNameOf resolves the *types.PkgName an identifier refers to, if the
// identifier names an imported package (e.g. the "time" in time.Now).
func pkgNameOf(info *types.Info, id *ast.Ident) (*types.PkgName, bool) {
	obj, ok := info.Uses[id]
	if !ok {
		return nil, false
	}
	pn, ok := obj.(*types.PkgName)
	return pn, ok
}

// render prints a compact source form of e for diagnostics and for matching
// a call or receiver by its spelling.
func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return render(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return render(e.X) + "[...]"
	case *ast.ParenExpr:
		return "(" + render(e.X) + ")"
	case *ast.BasicLit:
		return e.Value
	case *ast.UnaryExpr:
		return e.Op.String() + render(e.X)
	case *ast.StarExpr:
		return "*" + render(e.X)
	case *ast.BinaryExpr:
		return render(e.X) + " " + e.Op.String() + " " + render(e.Y)
	}
	return "expression"
}
