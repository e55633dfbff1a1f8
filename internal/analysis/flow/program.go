package flow

// The module-wide function index. Interprocedural checks need two things
// beyond a single package's AST: every function declaration in the module
// (so a summary computed for sim.SimulateSample is visible from a call site
// in experiments), and static call-site resolution from an *ast.CallExpr to
// that declaration. Both only cover what can be resolved without pointer
// analysis: direct calls to package functions and methods with declared
// bodies. Calls through interface methods, function values, and out-of-module
// code resolve to nil, and callers must treat nil as "no information" — the
// propagation is sound for what it claims, silent about the rest.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Package is the per-package view the Program indexes: the same shape the
// analysis driver loads, decoupled so flow has no import cycle with it.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Func is one declared function or method with a body.
type Func struct {
	// Obj is the *types.Func identity, shared across every package that
	// imports the declaring one.
	Obj *types.Func
	// Decl is the declaration; Decl.Body is non-nil.
	Decl *ast.FuncDecl
	// Pkg is the declaring package.
	Pkg *Package
}

// Program indexes every function declaration across the loaded module
// packages.
type Program struct {
	Fset *token.FileSet
	// Pkgs is every indexed package, sorted by import path.
	Pkgs []*Package

	funcs map[*types.Func]*Func
	list  []*Func
}

// NewProgram indexes pkgs. The same *types.Func object resolved from any
// importing package maps back to its declaration.
func NewProgram(fset *token.FileSet, pkgs []*Package) *Program {
	p := &Program{Fset: fset, funcs: map[*types.Func]*Func{}}
	p.Pkgs = append(p.Pkgs, pkgs...)
	sort.Slice(p.Pkgs, func(i, j int) bool { return p.Pkgs[i].Path < p.Pkgs[j].Path })
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || obj == nil {
					continue
				}
				fn := &Func{Obj: obj, Decl: fd, Pkg: pkg}
				p.funcs[obj] = fn
				p.list = append(p.list, fn)
			}
		}
	}
	return p
}

// Funcs returns every indexed function in deterministic (package path, then
// declaration) order.
func (p *Program) Funcs() []*Func { return p.list }

// FuncOf returns the indexed declaration for obj, or nil.
func (p *Program) FuncOf(obj *types.Func) *Func {
	if obj == nil {
		return nil
	}
	return p.funcs[obj]
}

// Callee statically resolves a call site against the index, using the
// type-check Info of the calling package. nil means the callee is dynamic
// (function value, interface method) or declared outside the module.
func (p *Program) Callee(info *types.Info, call *ast.CallExpr) *Func {
	return p.FuncOf(CalleeObj(info, call))
}

// CalleeObj resolves the *types.Func a call statically invokes, or nil.
func CalleeObj(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// No Selection: a package-qualified call (pkg.F).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
