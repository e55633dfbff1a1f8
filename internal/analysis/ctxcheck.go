package analysis

// ctx: the CollectContext pattern — any exported entry point that fans work
// out over goroutines must accept a context.Context so callers can bound
// it. An exported function that spawns goroutines without taking a context
// is an API that cannot be cancelled, and every future caller inherits that
// defect.
//
// The serving-side corollary (mcdvfsd): a function handling a
// *net/http.Request must derive its work from r.Context(), never mint a
// fresh root with context.Background() or context.TODO(). A handler that
// roots its collection in Background keeps burning a pool slot after the
// client hangs up — exactly the leak the daemon's admission control
// exists to prevent.

import (
	"go/ast"
	"go/types"
)

// CtxAnalyzer builds the ctx check.
func CtxAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "ctx",
		Doc:  "exported functions that spawn goroutines must accept context.Context; *http.Request handlers must thread r.Context()",
		Applies: func(path string) bool {
			return pathHasPrefix(path, "mcdvfs/internal")
		},
		Run: runCtx,
	}
}

func pathHasPrefix(path, prefix string) bool {
	return path == prefix || (len(path) > len(prefix) && path[:len(prefix)+1] == prefix+"/")
}

func runCtx(pass *Pass) {
	for _, f := range pass.Pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if hasRequestParam(pass, fd.Type) {
				reportRootContexts(pass, fd.Name.Name, fd.Body)
			}
			if !fd.Name.IsExported() || hasCtxParam(pass, fd) {
				continue
			}
			if spawnsGoroutines(fd.Body) {
				pass.Reportf(fd.Name.Pos(), "exported %s spawns goroutines but takes no context.Context; callers cannot cancel it (see trace.CollectContext)", fd.Name.Name)
			}
		}
		// HTTP handlers are often function literals (mux closures); hold
		// them to the same rule.
		ast.Inspect(f, func(n ast.Node) bool {
			fl, ok := n.(*ast.FuncLit)
			if !ok || !hasRequestParam(pass, fl.Type) {
				return true
			}
			reportRootContexts(pass, "handler literal", fl.Body)
			return true
		})
	}
}

// hasRequestParam reports whether the signature takes a *net/http.Request —
// the shape that marks a function as an HTTP handler (or a helper a handler
// delegates its request to).
func hasRequestParam(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := pass.Pkg.Info.Types[field.Type]
		if !ok || tv.Type == nil {
			continue
		}
		ptr, ok := tv.Type.(*types.Pointer)
		if !ok {
			continue
		}
		if isNamedType(ptr.Elem(), "net/http", "Request") {
			return true
		}
	}
	return false
}

// reportRootContexts flags context.Background() and context.TODO() calls in
// a request-handling body: the request already carries the context to use.
func reportRootContexts(pass *Pass, where string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		// A nested handler literal is visited (and reported) on its own.
		if fl, ok := n.(*ast.FuncLit); ok && hasRequestParam(pass, fl.Type) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pkgNameOf(pass.Pkg.Info, id)
		if !ok || pn.Imported().Path() != "context" {
			return true
		}
		if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
			pass.Reportf(call.Pos(), "%s handles a *http.Request but roots work in context.%s; thread r.Context() so a client disconnect cancels the collection it owns", where, sel.Sel.Name)
		}
		return true
	})
}

// hasCtxParam reports whether any parameter's type is context.Context.
func hasCtxParam(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := pass.Pkg.Info.Types[field.Type]
		if !ok || tv.Type == nil {
			continue
		}
		if isNamedType(tv.Type, "context", "Context") {
			return true
		}
	}
	return false
}

// spawnsGoroutines reports whether a function body launches a goroutine.
// Nested function literals count: spawning from a closure is still
// spawning.
func spawnsGoroutines(body *ast.BlockStmt) bool {
	spawns := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			spawns = true
		}
		return !spawns
	})
	return spawns
}

// isNamedType reports whether t is the named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
