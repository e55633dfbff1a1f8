package analysis

// goleak: every goroutine launched in the concurrency-bearing packages must
// have a visible termination contract. The daemon and the collection engine
// both run long enough that a leaked goroutine is not hygiene, it is a slow
// memory and accounting bug: a worker that outlives its pool keeps a Lab
// shard pinned, and a sampler that outlives its run skews the next run's
// energy totals.
//
// A go statement passes when any of these holds:
//
//   - counter join: the goroutine calls X.Done() (WaitGroup or errgroup
//     style) and X.Wait() is reachable on every CFG path from the launch to
//     the function's exit — or X is a struct field and some function of the
//     same package waits on that field (the pool pattern: workers start in
//     Run, join in Close);
//   - channel join: the goroutine sends on or closes a channel that the
//     launching function receives from (or ranges over) on every path;
//   - bounded handoff: the goroutine is loop-free and sends on a locally
//     made buffered channel (cap >= 1 constant) — it cannot block forever,
//     whether or not anyone listens (the errCh-under-select pattern);
//   - context bound: the goroutine's own body receives from a Done()
//     channel, tying its lifetime to a context.
//
// Everything else is reported. The check resolves `go f(...)` through the
// module function index, mapping the callee's Done/send evidence back to
// caller arguments where the arguments are simple expressions; evidence it
// cannot map (a send on a channel threaded through a struct) counts as
// "consumer lives elsewhere" and stays silent — the check errs toward
// missing a leak over inventing one.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"mcdvfs/internal/analysis/flow"
)

var goleakPkgs = map[string]bool{
	"mcdvfs/internal/serve":       true,
	"mcdvfs/internal/experiments": true,
	"mcdvfs/internal/trace":       true,
}

// GoLeakAnalyzer builds the goleak check.
func GoLeakAnalyzer() *Analyzer {
	return &Analyzer{
		Name:    "goleak",
		Doc:     "goroutines in the long-running packages must be joined: WaitGroup counter, channel handoff, or context bound",
		Applies: func(path string) bool { return goleakPkgs[path] },
		Run:     runGoLeak,
	}
}

func runGoLeak(pass *Pass) {
	if !pass.IncludeSrc {
		return
	}
	g := &goleakChecker{pass: pass}
	for _, f := range pass.Pkg.Syntax {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				g.checkFunc(fd)
			}
		}
	}
}

type goleakChecker struct {
	pass *Pass
}

// checkFunc examines every go statement launched directly by fn, then
// recurses into nested literals (a goroutine launched inside a closure joins
// against the closure's own control flow, not the enclosing function's).
func (g *goleakChecker) checkFunc(fn ast.Node) {
	body := flow.FuncBody(fn)
	var gos []*ast.GoStmt
	var nested []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			nested = append(nested, n)
			return false
		case *ast.GoStmt:
			gos = append(gos, n)
		}
		return true
	})
	if len(gos) > 0 {
		cfg := flow.New(fn)
		for _, goStmt := range gos {
			g.checkGo(fn, cfg, goStmt)
		}
	}
	for _, lit := range nested {
		g.checkFunc(lit)
	}
	// The launched literals themselves may launch goroutines too.
	for _, goStmt := range gos {
		if lit, ok := goStmt.Call.Fun.(*ast.FuncLit); ok {
			g.checkFunc(lit)
		}
	}
}

// goEvidence is what a goroutine body offers as termination contract,
// translated into the launcher's frame of reference.
type goEvidence struct {
	ctxBound  bool
	doneRecvs []ast.Expr // X of X.Done() calls, launcher frame
	sentChans []ast.Expr // channels sent to or closed, launcher frame
	loopSend  bool       // some send sits inside a loop
	external  bool       // evidence exists but cannot be mapped to the launcher
}

func (g *goleakChecker) checkGo(fn ast.Node, cfg *flow.CFG, goStmt *ast.GoStmt) {
	ev, resolved := g.gatherEvidence(goStmt)
	if !resolved {
		g.pass.Reportf(goStmt.Pos(), "goroutine target is dynamic and cannot be analyzed; join it visibly or waive with a reason")
		return
	}
	if ev.ctxBound {
		return
	}
	for _, wg := range ev.doneRecvs {
		if g.counterJoined(fn, cfg, goStmt, wg) {
			return
		}
	}
	for _, ch := range ev.sentChans {
		if g.chanJoined(fn, cfg, goStmt, ch, ev.loopSend) {
			return
		}
	}
	if ev.external {
		return
	}
	if len(ev.doneRecvs) == 0 && len(ev.sentChans) == 0 {
		g.pass.Reportf(goStmt.Pos(), "goroutine is fire-and-forget: no WaitGroup Done, channel send/close, or ctx-done receive in its body")
		return
	}
	g.pass.Reportf(goStmt.Pos(), "goroutine's completion signal is not consumed on every path from here to return (Wait or receive can be skipped)")
}

// gatherEvidence inspects the goroutine's body. For a function literal the
// evidence expressions are already in the launcher's frame (captured
// variables). For a statically resolved callee, parameter- and receiver-
// rooted evidence maps through the call's arguments; anything rooted deeper
// is marked external. resolved=false means the body is invisible (dynamic
// call or out-of-module).
func (g *goleakChecker) gatherEvidence(goStmt *ast.GoStmt) (goEvidence, bool) {
	info := g.pass.Pkg.Info
	if lit, ok := goStmt.Call.Fun.(*ast.FuncLit); ok {
		ev := collectBodyEvidence(lit.Body, nil)
		return ev, true
	}
	callee := g.pass.Prog.Callee(info, goStmt.Call)
	if callee == nil {
		return goEvidence{}, false
	}
	// Map the callee's parameter names (and method receiver) to the
	// launcher-frame argument expressions.
	rename := map[string]ast.Expr{}
	if callee.Decl.Recv != nil && len(callee.Decl.Recv.List) > 0 && len(callee.Decl.Recv.List[0].Names) > 0 {
		if sel, ok := ast.Unparen(goStmt.Call.Fun).(*ast.SelectorExpr); ok {
			rename[callee.Decl.Recv.List[0].Names[0].Name] = sel.X
		}
	}
	i := 0
	if callee.Decl.Type.Params != nil {
		for _, f := range callee.Decl.Type.Params.List {
			for _, name := range f.Names {
				if i < len(goStmt.Call.Args) {
					rename[name.Name] = goStmt.Call.Args[i]
				}
				i++
			}
		}
	}
	ev := collectBodyEvidence(callee.Decl.Body, rename)
	return ev, true
}

// collectBodyEvidence walks a goroutine body. rename maps the body's root
// identifiers into the launcher's frame (nil for literals, which share it).
func collectBodyEvidence(body *ast.BlockStmt, rename map[string]ast.Expr) goEvidence {
	var ev goEvidence
	loopDepth := 0
	// translate rewrites an evidence expression into the launcher's frame,
	// or reports it unmappable.
	translate := func(e ast.Expr) (ast.Expr, bool) {
		if rename == nil {
			return e, true
		}
		if id, ok := e.(*ast.Ident); ok {
			if mapped, ok := rename[id.Name]; ok {
				return mapped, true
			}
			return nil, false
		}
		// Selector roots (p.wg where p is the receiver) stay field evidence;
		// the field-waiter fallback keys on the final field name, which
		// translation preserves, so pass the expression through.
		return e, true
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			ast.Inspect(n, func(m ast.Node) bool {
				if m == n {
					return true
				}
				return walk(m)
			})
			loopDepth--
			return false
		case *ast.SendStmt:
			if ch, ok := translate(n.Chan); ok {
				ev.sentChans = append(ev.sentChans, ch)
				if loopDepth > 0 {
					ev.loopSend = true
				}
			} else {
				ev.external = true
			}
		case *ast.UnaryExpr:
			// <-X.Done() — a context-shaped bound, whatever X is.
			if n.Op == token.ARROW {
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && len(call.Args) == 0 {
						ev.ctxBound = true
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && len(n.Args) == 0 {
				if x, ok := translate(sel.X); ok {
					ev.doneRecvs = append(ev.doneRecvs, x)
				} else {
					ev.external = true
				}
			}
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if ch, ok := translate(n.Args[0]); ok {
					ev.sentChans = append(ev.sentChans, ch)
				} else {
					ev.external = true
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return ev
}

// counterJoined reports whether the WaitGroup-like wg has a Wait on every
// path from the launch, or — for struct fields — a waiter anywhere in the
// declaring package.
func (g *goleakChecker) counterJoined(fn ast.Node, cfg *flow.CFG, goStmt *ast.GoStmt, wg ast.Expr) bool {
	// `go worker(&wg)` maps the callee's wg.Done() evidence to &wg; the
	// launcher joins on the unadorned variable.
	if ue, ok := ast.Unparen(wg).(*ast.UnaryExpr); ok && ue.Op == token.AND {
		wg = ue.X
	}
	want := render(wg) + ".Wait"
	ok := func(n ast.Node) bool { return nodeHasCallRendered(n, want) }
	if flow.EveryPathHits(cfg, goStmt, ok) {
		return true
	}
	// Field fallback: the pool pattern joins in another method. Accept a
	// Wait on the same final field name anywhere in this package.
	if sel, isField := wg.(*ast.SelectorExpr); isField {
		suffix := "." + sel.Sel.Name + ".Wait"
		for _, f := range g.pass.Prog.Funcs() {
			if f.Pkg.Types != g.pass.Pkg.Types {
				continue
			}
			found := false
			ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if strings.HasSuffix(render(call.Fun), suffix) {
						found = true
					}
				}
				return !found
			})
			if found {
				return true
			}
		}
	}
	return false
}

// chanJoined reports whether a goroutine's send on ch is consumed: an
// every-path receive/range in the launcher, a bounded local buffer, or a
// channel whose consumer provably lives outside this function.
func (g *goleakChecker) chanJoined(fn ast.Node, cfg *flow.CFG, goStmt *ast.GoStmt, ch ast.Expr, loopSend bool) bool {
	want := render(ch)
	recv := func(n ast.Node) bool { return nodeReceivesFrom(n, want) }
	if flow.EveryPathHits(cfg, goStmt, recv) {
		return true
	}
	if !loopSend && g.locallyBuffered(fn, ch) {
		return true
	}
	// A channel that is not a local of this function (parameter, field,
	// package var) has its consumer elsewhere; the launcher is not the one
	// leaking it.
	if !g.isFunctionLocal(fn, ch) {
		return true
	}
	return false
}

// locallyBuffered reports whether ch is defined in fn as make(chan T, n)
// with constant n >= 1.
func (g *goleakChecker) locallyBuffered(fn ast.Node, ch ast.Expr) bool {
	id, ok := ch.(*ast.Ident)
	if !ok {
		return false
	}
	info := g.pass.Pkg.Info
	v, _ := info.Uses[id].(*types.Var)
	if v == nil {
		v, _ = info.Defs[id].(*types.Var)
	}
	if v == nil {
		return false
	}
	buffered := false
	ast.Inspect(flow.FuncBody(fn), func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			lv, _ := info.Defs[lid].(*types.Var)
			if lv == nil {
				lv, _ = info.Uses[lid].(*types.Var)
			}
			if lv != v {
				continue
			}
			call, ok := as.Rhs[i].(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				continue
			}
			if fid, ok := call.Fun.(*ast.Ident); !ok || fid.Name != "make" {
				continue
			}
			if tv, ok := info.Types[call.Args[1]]; ok && tv.Value != nil {
				if n, ok := constant.Int64Val(tv.Value); ok && n >= 1 {
					buffered = true
				}
			}
		}
		return true
	})
	return buffered
}

// isFunctionLocal reports whether ch resolves to a variable declared inside
// fn's body (as opposed to a parameter — whose consumer is the caller's
// business — a captured outer local, a field, or a package var).
func (g *goleakChecker) isFunctionLocal(fn ast.Node, ch ast.Expr) bool {
	id, ok := ch.(*ast.Ident)
	if !ok {
		return false
	}
	info := g.pass.Pkg.Info
	v, _ := info.Uses[id].(*types.Var)
	if v == nil {
		v, _ = info.Defs[id].(*types.Var)
	}
	if v == nil || v.IsField() {
		return false
	}
	body := flow.FuncBody(fn)
	return body.Pos() <= v.Pos() && v.Pos() <= body.End()
}

// nodeHasCallRendered reports whether n contains a call whose function
// renders exactly to want ("p.wg.Wait").
func nodeHasCallRendered(n ast.Node, want string) bool {
	found := false
	ast.Inspect(flow.HeaderExpr(n), func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok && render(call.Fun) == want {
			found = true
		}
		return !found
	})
	return found
}

// nodeReceivesFrom reports whether n receives from or ranges over the
// channel rendering to want.
func nodeReceivesFrom(n ast.Node, want string) bool {
	if r, ok := n.(*ast.RangeStmt); ok && render(r.X) == want {
		return true
	}
	found := false
	ast.Inspect(flow.HeaderExpr(n), func(m ast.Node) bool {
		if u, ok := m.(*ast.UnaryExpr); ok && u.Op == token.ARROW && render(u.X) == want {
			found = true
		}
		return !found
	})
	return found
}
