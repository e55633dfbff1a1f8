// Package analysis is mcdvfs's in-tree static-analysis suite, built only on
// the standard library's go/ast, go/parser, and go/types (no x/tools — the
// repository stays a zero-dependency offline build).
//
// The paper's methodology rests on two properties that ordinary tests cannot
// economically guard: every sample stream must be bit-reproducible (the
// parallel collection engine is verified byte-identical to the serial
// reference, which is only meaningful if no nondeterminism leaks into the
// sim/trace/dram/core paths), and every power/latency formula must be
// unit-consistent (MHz vs Hz, joules vs watts — the same failure class the
// SysScale and gem5 DRAM power-down models guard against with validated
// cross-domain calibration). This package turns those review-folklore
// invariants into machine-checked gates. It has eight checks: determinism,
// units, ctx, goleak, errflow, rangecheck, hotpath and contract. Each one
// catches a defect that go vet, the race detector and the tests let
// through; DESIGN.md §7 has the catalogue and that audit.
//
// A check is an Analyzer: a named pass over one type-checked package.
// The driver in run.go loads packages (load.go), applies the per-check
// package scopes, filters diagnostics through //lint:allow suppressions
// (suppress.go), and renders text or JSON for cmd/mcdvfsvet.
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
	// Dir is the directory the sources were read from.
	Dir string
	// Fset positions every file below.
	Fset *token.FileSet
	// Syntax holds the parsed non-test files, sorted by filename.
	Syntax []*ast.File
	// TestSyntax holds the parsed _test.go files, syntax only: test files
	// are not type-checked (they may form a separate external test package)
	// so checks that opt in via AnalyzeTests work purely on the AST.
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
	// substrate for interprocedural checks. It is shared, read-mostly (CFGs
	// and def-use chains build lazily behind sync.Once), and safe to use from
	// concurrent passes.
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

// ModulePass is one analyzer's module-wide execution: after every
// per-package pass, analyzers that need cross-package state in one place
// (hotpath walks the static call graph from each root across packages)
// run once over all in-scope packages.
type ModulePass struct {
	// Prog indexes the whole loaded module.
	Prog *flow.Program
	// Pkgs are the packages in scope for this analyzer, in load order.
	Pkgs   []*Package
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
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
	// Name is the identifier used by -disable and //lint:allow.
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
	// Program — the place to compute call-graph summaries. It runs serially;
	// whatever it stores must be read-only afterwards, because Run executes
	// concurrently across packages.
	Prepare func(prog *flow.Program)
	// Run executes the check against one package. Optional for analyzers
	// that only need the module-wide pass.
	Run func(pass *Pass)
	// RunModule, if set, executes once over every in-scope package after the
	// per-package passes. It runs serially.
	RunModule func(pass *ModulePass)
}

// Suite returns every analyzer in the canonical order. The order is part of
// the golden-test contract: diagnostics are reported per check, then by
// position.
func Suite() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		UnitSafetyAnalyzer(),
		CtxAnalyzer(),
		GoLeakAnalyzer(),
		ErrFlowAnalyzer(),
		RangeCheckAnalyzer(),
		HotPathAnalyzer(),
		ContractAnalyzer(),
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
