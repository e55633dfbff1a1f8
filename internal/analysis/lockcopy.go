package analysis

// lockcopy: copying a struct that contains a sync.Mutex forks the lock —
// two goroutines each locking their own copy exclude nobody, and the race
// only manifests under contention. The Lab's grid cache and its entries
// embed a mutex and a sync.Once, so a refactor that changes a pointer
// receiver to a value receiver, or ranges over entries by value, compiles
// cleanly and corrupts the singleflight invariant. This check re-implements the core
// of vet's copylocks inside the suite so `make lint` stands alone.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockTypes are the sync types that must never be copied after first use.
var lockTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Once": true, "Cond": true, "Map": true, "Pool": true,
}

// LockCopyAnalyzer builds the lockcopy check.
func LockCopyAnalyzer() *Analyzer {
	return &Analyzer{
		Name:    "lockcopy",
		Doc:     "forbid copying values whose type transitively contains a sync lock",
		Applies: func(string) bool { return true },
		Run:     runLockCopy,
	}
}

func runLockCopy(pass *Pass) {
	for _, f := range pass.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkFuncSig(pass, n.Recv, "receiver")
				checkFuncSig(pass, n.Type.Params, "parameter")
				checkFuncSig(pass, n.Type.Results, "result")
			case *ast.FuncLit:
				checkFuncSig(pass, n.Type.Params, "parameter")
				checkFuncSig(pass, n.Type.Results, "result")
			case *ast.AssignStmt:
				checkAssign(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if copiesLock(pass, res) {
						pass.Reportf(res.Pos(), "return copies lock value: %s contains %s", render(res), lockPath(operandType(pass, res)))
					}
				}
			}
			return true
		})
	}
}

// checkFuncSig flags non-pointer lock-bearing types in a field list.
func checkFuncSig(pass *Pass, fields *ast.FieldList, role string) {
	if fields == nil {
		return
	}
	for _, field := range fields.List {
		tv, ok := pass.Pkg.Info.Types[field.Type]
		if !ok || tv.Type == nil {
			continue
		}
		if name := lockPath(tv.Type); name != "" {
			pass.Reportf(field.Type.Pos(), "%s passes lock by value: type %s contains %s; use a pointer", role, tv.Type, name)
		}
	}
}

// checkAssign flags x = y and x := y where y is an existing value (not a
// fresh composite literal, call result, or address) of a lock-bearing type.
func checkAssign(pass *Pass, n *ast.AssignStmt) {
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		return
	}
	for _, rhs := range n.Rhs {
		if copiesLock(pass, rhs) {
			pass.Reportf(rhs.Pos(), "assignment copies lock value: %s contains %s", render(rhs), lockPath(operandType(pass, rhs)))
		}
	}
}

// checkRange flags `for _, v := range xs` where v receives a lock-bearing
// element by value.
func checkRange(pass *Pass, n *ast.RangeStmt) {
	if n.Value == nil {
		return
	}
	id, ok := n.Value.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	t := operandType(pass, n.Value)
	if t == nil {
		if obj, ok := pass.Pkg.Info.Defs[id]; ok && obj != nil {
			t = obj.Type()
		}
	}
	if t == nil {
		return
	}
	if name := lockPath(t); name != "" {
		pass.Reportf(id.Pos(), "range copies lock value: %s receives a %s-bearing element by value; range over indices or pointers", id.Name, name)
	}
}

// copiesLock reports whether e denotes an existing addressable value of a
// lock-bearing type, i.e. evaluating it performs a forbidden copy.
func copiesLock(pass *Pass, e ast.Expr) bool {
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return false // fresh values (literals, calls, &x) are initialization
	}
	t := operandType(pass, e)
	return t != nil && lockPath(t) != ""
}

// lockPath returns the name of the first sync lock type found inside t
// ("sync.Mutex"), or "" when t carries no lock by value. Pointers stop the
// search: sharing a pointer is the sanctioned way to share a lock.
func lockPath(t types.Type) string {
	return lockPathSeen(t, make(map[types.Type]bool))
}

func lockPathSeen(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && lockTypes[obj.Name()] {
			return "sync." + obj.Name()
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if name := lockPathSeen(u.Field(i).Type(), seen); name != "" {
				return name
			}
		}
	case *types.Array:
		return lockPathSeen(u.Elem(), seen)
	}
	return ""
}
