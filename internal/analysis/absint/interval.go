package absint

// The interval domain: every numeric fact is a closed range [Lo, Hi] with an
// orthogonal NonZero bit ("provably never zero" survives joins that widen the
// range across zero, which is exactly the fact a division guard establishes).
//
// The domain runs on EVIDENCE semantics. Known=false is top — "no idea" —
// and a check built on it must stay silent there. Facts only exist when the
// source gives them: a literal, a len() (always ≥ 0), a physics seed fed in
// by the caller (a MHz-suffixed field inherits the module's operating-point
// range), a callee summary, or a branch refinement. That asymmetry is the
// difference between a range checker with a handful of true findings and one
// that drowns the suite in "might be zero" noise.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
	"strconv"
	"strings"

	"mcdvfs/internal/analysis/flow"
)

// Interval is one numeric fact. The zero value is top (Known=false).
type Interval struct {
	Lo, Hi  float64
	NonZero bool
	Known   bool
}

var inf = math.Inf(1)

// Top is the no-information value.
func Top() Interval { return Interval{} }

// Exact is the singleton interval [v, v].
func Exact(v float64) Interval {
	return Interval{Lo: v, Hi: v, NonZero: v != 0, Known: true}
}

// Range is the interval [lo, hi] (use math.Inf for open ends).
func Range(lo, hi float64) Interval {
	return Interval{Lo: lo, Hi: hi, Known: true}.norm()
}

// norm re-derives NonZero from bounds that exclude zero.
func (iv Interval) norm() Interval {
	if iv.Known && (iv.Lo > 0 || iv.Hi < 0) {
		iv.NonZero = true
	}
	return iv
}

// ContainsZero reports whether the fact admits zero — the division-by-zero
// trigger. Top never triggers (no evidence).
func (iv Interval) ContainsZero() bool {
	return iv.Known && !iv.NonZero && iv.Lo <= 0 && iv.Hi >= 0
}

// DefinitelyNegative reports a fact whose every value is < 0.
func (iv Interval) DefinitelyNegative() bool { return iv.Known && iv.Hi < 0 }

// String renders the fact for diagnostics: "[0, 3200]", "[1, +inf)", "top".
func (iv Interval) String() string {
	if !iv.Known {
		return "top"
	}
	var b strings.Builder
	if math.IsInf(iv.Lo, -1) {
		b.WriteString("(-inf, ")
	} else {
		b.WriteString("[" + trimFloat(iv.Lo) + ", ")
	}
	if math.IsInf(iv.Hi, 1) {
		b.WriteString("+inf)")
	} else {
		b.WriteString(trimFloat(iv.Hi) + "]")
	}
	if iv.NonZero && iv.Lo <= 0 && iv.Hi >= 0 {
		b.WriteString("\\{0}")
	}
	return b.String()
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', 6, 64)
	return s
}

// IntervalLattice implements Lattice[Interval].
type IntervalLattice struct{}

// Join is the convex hull; joining with top is top, and NonZero survives only
// when both sides carry it.
func (IntervalLattice) Join(a, b Interval) Interval {
	if !a.Known || !b.Known {
		return Top()
	}
	return Interval{
		Lo: math.Min(a.Lo, b.Lo), Hi: math.Max(a.Hi, b.Hi),
		NonZero: a.NonZero && b.NonZero, Known: true,
	}.norm()
}

// Widen jumps any growing bound straight to infinity, so loop-head chains
// stabilize in one step per direction.
func (IntervalLattice) Widen(prev, next Interval) Interval {
	if !prev.Known || !next.Known {
		return Top()
	}
	w := prev
	if next.Lo < prev.Lo {
		w.Lo = math.Inf(-1)
	}
	if next.Hi > prev.Hi {
		w.Hi = inf
	}
	w.NonZero = prev.NonZero && next.NonZero
	return w.norm()
}

// Narrow pulls a widened infinite bound back to the recomputed one and keeps
// every finite bound (narrowing must never grow the interval).
func (IntervalLattice) Narrow(prev, next Interval) Interval {
	if !prev.Known {
		return next
	}
	if !next.Known {
		return prev
	}
	n := prev
	if math.IsInf(prev.Lo, -1) {
		n.Lo = next.Lo
	}
	if math.IsInf(prev.Hi, 1) {
		n.Hi = next.Hi
	}
	n.NonZero = prev.NonZero || next.NonZero
	return n.norm()
}

// Equal is exact: an epsilon would break fixpoint termination.
func (IntervalLattice) Equal(a, b Interval) bool { return a == b }

// IntervalEval evaluates expressions and drives transfer/refinement for the
// interval domain. The three hooks are how physics knowledge gets in without
// this package importing the model packages:
//
//   - VarSeed: a fact for an otherwise-unknown variable (a parameter named
//     freqMHz seeds the operating-point range);
//   - PathSeed: same for a selector path (m.dev.TRFCNs seeds [0, +inf));
//   - Call: a result interval for a statically-resolved call (the summary
//     table computed in an analyzer's Prepare hook).
type IntervalEval struct {
	Info     *types.Info
	VarSeed  func(v *types.Var) (Interval, bool)
	PathSeed func(sel *ast.SelectorExpr) (Interval, bool)
	Call     func(call *ast.CallExpr) (Interval, bool)
	// CallEnv is consulted before Call and additionally sees the current
	// environment, so a hook can propagate argument facts through a callee
	// (monotone math functions, contract summaries seeded by requires).
	CallEnv func(call *ast.CallExpr, env *Env[Interval]) (Interval, bool)
	// CallTuple resolves a multi-result call on the right of a tuple
	// assignment to per-result intervals, so annotated callees publish
	// facts for every result instead of clobbering each target to top.
	// The returned slice must have length n; unknown entries leave the
	// corresponding target untracked.
	CallTuple func(call *ast.CallExpr, n int) ([]Interval, bool)
}

// Interp wraps the evaluator as a fixpoint driver.
func (ev *IntervalEval) Interp() *Interp[Interval] {
	return &Interp[Interval]{
		Lat:      IntervalLattice{},
		Transfer: ev.Transfer,
		Refine:   ev.Refine,
	}
}

// Expr evaluates e to an interval under env.
func (ev *IntervalEval) Expr(e ast.Expr, env *Env[Interval]) Interval {
	if e == nil {
		return Top()
	}
	if tv, ok := ev.Info.Types[e]; ok && tv.Value != nil {
		if f, ok := constFloat(tv.Value); ok {
			return Exact(f)
		}
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return ev.Expr(e.X, env)
	case *ast.Ident:
		if v, ok := objVar(ev.Info, e); ok {
			if iv, ok := env.Var(v); ok {
				return iv
			}
			if ev.VarSeed != nil {
				if iv, ok := ev.VarSeed(v); ok {
					return iv.norm()
				}
			}
		}
		return Top()
	case *ast.SelectorExpr:
		if path, _, ok := PathOf(ev.Info, e); ok {
			if iv, ok := env.Path(path); ok {
				return iv
			}
		}
		if ev.PathSeed != nil {
			if iv, ok := ev.PathSeed(e); ok {
				return iv.norm()
			}
		}
		return Top()
	case *ast.CallExpr:
		return ev.callExpr(e, env)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.SUB:
			return negIv(ev.Expr(e.X, env))
		case token.ADD:
			return ev.Expr(e.X, env)
		}
		return Top()
	case *ast.BinaryExpr:
		x, y := ev.Expr(e.X, env), ev.Expr(e.Y, env)
		switch e.Op {
		case token.ADD:
			return addIv(x, y)
		case token.SUB:
			return subIv(x, y)
		case token.MUL:
			return mulIv(x, y)
		case token.QUO:
			return divIv(x, y, ev.isInt(e))
		case token.REM:
			return modIv(x, y)
		}
		return Top()
	}
	return Top()
}

// callExpr evaluates conversions, the len/cap/min/max builtins, and — through
// the Call hook — summarized module functions.
func (ev *IntervalEval) callExpr(call *ast.CallExpr, env *Env[Interval]) Interval {
	if tv, ok := ev.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return convertIv(ev.Expr(call.Args[0], env), tv.Type)
	}
	switch builtinName(ev.Info, call) {
	case "len", "cap":
		if len(call.Args) == 1 {
			if path, ok := lenKey(ev.Info, call); ok {
				if iv, ok := env.Path(path); ok {
					return iv
				}
				// cap without its own fact is still bounded below by any
				// length fact: cap(x) >= len(x) always.
				if strings.HasPrefix(path, "cap(") {
					if iv, ok := env.Path("len(" + strings.TrimPrefix(path, "cap(")); ok && iv.Known {
						return Range(iv.Lo, inf)
					}
				}
			}
			if n, ok := staticLen(ev.Info, call.Args[0]); ok {
				return Exact(float64(n))
			}
		}
		return Range(0, inf)
	case "min", "max":
		isMin := builtinName(ev.Info, call) == "min"
		out := ev.Expr(call.Args[0], env)
		for _, a := range call.Args[1:] {
			iv := ev.Expr(a, env)
			if !out.Known || !iv.Known {
				return Top()
			}
			if isMin {
				out = Range(math.Min(out.Lo, iv.Lo), math.Min(out.Hi, iv.Hi))
			} else {
				out = Range(math.Max(out.Lo, iv.Lo), math.Max(out.Hi, iv.Hi))
			}
		}
		return out
	case "":
		if ev.CallEnv != nil {
			if iv, ok := ev.CallEnv(call, env); ok {
				return iv.norm()
			}
		}
		if ev.Call != nil {
			if iv, ok := ev.Call(call); ok {
				return iv.norm()
			}
		}
	}
	return Top()
}

// Transfer applies one CFG node's effect to env in place.
func (ev *IntervalEval) Transfer(n ast.Node, env *Env[Interval]) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		ev.assign(n, env)
	case *ast.IncDecStmt:
		cur := ev.Expr(n.X, env)
		delta := Exact(1)
		if n.Tok == token.DEC {
			delta = Exact(-1)
		}
		ev.sideEffects(n, env)
		ev.write(n.X, addIv(cur, delta), contFacts{}, env)
	case *ast.DeclStmt:
		ev.declare(n, env)
	case *ast.RangeStmt:
		ev.rangeHead(n, env)
	default:
		ev.sideEffects(n, env)
	}
}

// assign handles =, :=, and the arithmetic op-assigns. RHS values are read
// under the pre-state, call side effects clobber, then LHS facts are written.
func (ev *IntervalEval) assign(as *ast.AssignStmt, env *Env[Interval]) {
	switch as.Tok {
	case token.DEFINE, token.ASSIGN:
		if len(as.Lhs) == len(as.Rhs) {
			vals := make([]Interval, len(as.Rhs))
			conts := make([]contFacts, len(as.Rhs))
			for i, r := range as.Rhs {
				vals[i] = ev.Expr(r, env)
				conts[i] = ev.contOf(r, env)
			}
			ev.sideEffects(as, env)
			for i, l := range as.Lhs {
				ev.write(l, vals[i], conts[i], env)
			}
			return
		}
		// Tuple assignment from a call or comma-ok: results untracked
		// unless the CallTuple hook can summarize the callee per-result.
		ev.sideEffects(as, env)
		if ev.CallTuple != nil && len(as.Rhs) == 1 {
			if call, ok := unparen(as.Rhs[0]).(*ast.CallExpr); ok {
				if ivs, ok := ev.CallTuple(call, len(as.Lhs)); ok && len(ivs) == len(as.Lhs) {
					for i, l := range as.Lhs {
						ev.write(l, ivs[i], contFacts{}, env)
					}
					return
				}
			}
		}
		for _, l := range as.Lhs {
			ev.write(l, Top(), contFacts{}, env)
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN:
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		cur := ev.Expr(as.Lhs[0], env)
		rhs := ev.Expr(as.Rhs[0], env)
		var nv Interval
		switch as.Tok {
		case token.ADD_ASSIGN:
			nv = addIv(cur, rhs)
		case token.SUB_ASSIGN:
			nv = subIv(cur, rhs)
		case token.MUL_ASSIGN:
			nv = mulIv(cur, rhs)
		case token.QUO_ASSIGN:
			nv = divIv(cur, rhs, ev.isInt(as.Lhs[0]))
		case token.REM_ASSIGN:
			nv = modIv(cur, rhs)
		}
		ev.sideEffects(as, env)
		ev.write(as.Lhs[0], nv, contFacts{}, env)
	default:
		// Bit-op assigns and anything exotic: clobber the target.
		ev.sideEffects(as, env)
		for _, l := range as.Lhs {
			ev.write(l, Top(), contFacts{}, env)
		}
	}
}

// declare handles var declarations: explicit initializers evaluate like an
// assignment, and bare numeric declarations pin the zero value (var n int is
// exactly [0, 0], the fact that makes an unguarded 1/n reportable).
func (ev *IntervalEval) declare(d *ast.DeclStmt, env *Env[Interval]) {
	gd, ok := d.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	ev.sideEffects(d, env)
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if name.Name == "_" {
				continue
			}
			v, ok := objVar(ev.Info, name)
			if !ok {
				continue
			}
			if i < len(vs.Values) {
				iv := ev.Expr(vs.Values[i], env)
				ev.write(name, iv, ev.contOf(vs.Values[i], env), env)
				continue
			}
			if len(vs.Values) > 0 {
				continue // tuple-valued var decl: untracked
			}
			if basic, ok := v.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsNumeric != 0 {
				env.Vars[v] = Exact(0)
			}
			switch v.Type().Underlying().(type) {
			case *types.Slice:
				env.Paths["len("+name.Name+")"] = Exact(0)
				env.Paths["cap("+name.Name+")"] = Exact(0)
			case *types.Map:
				env.Paths["len("+name.Name+")"] = Exact(0)
			}
		}
	}
}

// rangeHead models the loop header: X is evaluated, the key variable is
// redefined into [0, len-1] for sequences, and the value variable loses any
// stale fact.
func (ev *IntervalEval) rangeHead(r *ast.RangeStmt, env *Env[Interval]) {
	ev.sideEffectsExpr(r.X, env)
	seq := false
	if tv, ok := ev.Info.Types[r.X]; ok && tv.Type != nil {
		switch tv.Type.Underlying().(type) {
		case *types.Slice, *types.Array, *types.Pointer, *types.Basic:
			// slices, arrays (and pointers to them), strings: integer keys
			seq = true
		}
		if basic, ok := tv.Type.Underlying().(*types.Basic); ok {
			// range over an integer (go1.22): key in [0, n-1]
			seq = basic.Info()&types.IsInteger != 0 || basic.Info()&types.IsString != 0
		}
	}
	if id, ok := r.Key.(*ast.Ident); ok && id.Name != "_" {
		if v, ok := objVar(ev.Info, id); ok {
			if seq {
				hi := inf
				if ln, ok := ev.lenOf(r.X, env); ok && ln.Known && !math.IsInf(ln.Hi, 1) {
					hi = math.Max(ln.Hi-1, 0)
				} else if tv, ok := ev.Info.Types[r.X]; ok {
					if n, ok := arrayLen(tv.Type); ok {
						hi = math.Max(float64(n)-1, 0)
					}
				}
				env.Vars[v] = Range(0, hi)
			} else {
				delete(env.Vars, v)
			}
			invalidateRoot(env, id.Name)
		}
	}
	if id, ok := r.Value.(*ast.Ident); ok && id.Name != "_" {
		ev.write(id, Top(), contFacts{}, env)
	}
}

// contFacts carries the container facts (length, capacity) of an RHS value
// being written; each side is valid only when its OK bit is set.
type contFacts struct {
	len, cap     Interval
	lenOK, capOK bool
}

// contOf bundles lenOf and capOf for a value about to be stored.
func (ev *IntervalEval) contOf(e ast.Expr, env *Env[Interval]) contFacts {
	var cf contFacts
	cf.len, cf.lenOK = ev.lenOf(e, env)
	cf.cap, cf.capOK = ev.capOf(e, env)
	return cf
}

// write stores a fact at an assignable destination, invalidating whatever the
// store makes stale. cf carries length/capacity facts for container-valued
// RHS (make, composite literal, append).
func (ev *IntervalEval) write(lhs ast.Expr, val Interval, cf contFacts, env *Env[Interval]) {
	switch l := lhs.(type) {
	case *ast.ParenExpr:
		ev.write(l.X, val, cf, env)
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		invalidateRoot(env, l.Name)
		v, ok := objVar(ev.Info, l)
		if !ok {
			return
		}
		if val.Known {
			env.Vars[v] = val
		} else {
			delete(env.Vars, v)
		}
		writeContFacts(env, l.Name, cf)
	case *ast.SelectorExpr:
		path, _, ok := PathOf(ev.Info, l)
		if !ok {
			// Unrenderable base (method call result, index): give up on all
			// dotted facts — something reachable changed.
			invalidateDotted(env)
			return
		}
		invalidatePrefix(env, path)
		if val.Known {
			env.Paths[path] = val
		}
		writeContFacts(env, path, cf)
	case *ast.IndexExpr:
		// Element writes don't change lengths and elements are untracked.
	case *ast.StarExpr:
		// A store through a pointer may alias any field anywhere.
		invalidateDotted(env)
	}
}

func writeContFacts(env *Env[Interval], path string, cf contFacts) {
	if cf.lenOK && cf.len.Known {
		env.Paths["len("+path+")"] = cf.len
	}
	if cf.capOK && cf.cap.Known {
		env.Paths["cap("+path+")"] = cf.cap
	}
}

// lenOf produces a length fact for container-valued expressions: append
// arithmetic, make sizes, composite literals, fixed arrays, aliases.
// LenOf exposes the length fact the evaluator holds for e, if any, so
// checks can compare indices against container sizes.
func (ev *IntervalEval) LenOf(e ast.Expr, env *Env[Interval]) (Interval, bool) {
	return ev.lenOf(e, env)
}

func (ev *IntervalEval) lenOf(e ast.Expr, env *Env[Interval]) (Interval, bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return ev.lenOf(e.X, env)
	case *ast.Ident, *ast.SelectorExpr:
		if path, _, ok := PathOf(ev.Info, e); ok {
			if iv, ok := env.Path("len(" + path + ")"); ok {
				return iv, true
			}
		}
		if tv, ok := ev.Info.Types[e]; ok {
			if n, ok := arrayLen(tv.Type); ok {
				return Exact(float64(n)), true
			}
		}
		return Top(), false
	case *ast.CompositeLit:
		tv, ok := ev.Info.Types[e]
		if !ok {
			return Top(), false
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice, *types.Map:
			for _, elt := range e.Elts {
				if _, keyed := elt.(*ast.KeyValueExpr); keyed {
					if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
						return Top(), false // keyed slice elements set arbitrary indices
					}
				}
			}
			return Exact(float64(len(e.Elts))), true
		}
		if n, ok := arrayLen(tv.Type); ok {
			return Exact(float64(n)), true
		}
		return Top(), false
	case *ast.CallExpr:
		switch builtinName(ev.Info, e) {
		case "make":
			if len(e.Args) >= 2 {
				return ev.Expr(e.Args[1], env), true
			}
			if len(e.Args) == 1 { // make(map[K]V) / make(chan T)
				return Exact(0), true
			}
		case "append":
			if len(e.Args) == 0 {
				return Top(), false
			}
			base, ok := ev.lenOf(e.Args[0], env)
			if !ok {
				base = Range(0, inf)
			}
			if e.Ellipsis.IsValid() {
				return addIv(base, Range(0, inf)), true
			}
			return addIv(base, Exact(float64(len(e.Args)-1))), true
		}
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			if tv, ok := ev.Info.Types[e]; ok && tv.Value != nil {
				if s := constant.StringVal(tv.Value); true {
					return Exact(float64(len(s))), true
				}
			}
		}
	}
	return Top(), false
}

// CapOf exposes the capacity fact the evaluator holds for e, if any, so
// checks can prove appends grow in place (len + k <= cap).
func (ev *IntervalEval) CapOf(e ast.Expr, env *Env[Interval]) (Interval, bool) {
	return ev.capOf(e, env)
}

// capOf produces a capacity fact for container-valued expressions. It
// mirrors lenOf where capacities are determined: make sizes seed it, a slice
// literal's capacity equals its length, and append never shrinks capacity.
func (ev *IntervalEval) capOf(e ast.Expr, env *Env[Interval]) (Interval, bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return ev.capOf(e.X, env)
	case *ast.Ident, *ast.SelectorExpr:
		if path, _, ok := PathOf(ev.Info, e); ok {
			if iv, ok := env.Path("cap(" + path + ")"); ok {
				return iv, true
			}
		}
		if tv, ok := ev.Info.Types[e]; ok {
			if n, ok := arrayLen(tv.Type); ok {
				return Exact(float64(n)), true
			}
		}
		return Top(), false
	case *ast.CompositeLit:
		tv, ok := ev.Info.Types[e]
		if !ok {
			return Top(), false
		}
		if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
			if ln, ok := ev.lenOf(e, env); ok {
				return ln, true
			}
			return Top(), false
		}
		if n, ok := arrayLen(tv.Type); ok {
			return Exact(float64(n)), true
		}
		return Top(), false
	case *ast.CallExpr:
		switch builtinName(ev.Info, e) {
		case "make":
			if _, isMap := typeUnder(ev.Info, e).(*types.Map); isMap {
				return Top(), false // maps have no capacity fact
			}
			if len(e.Args) >= 3 {
				return ev.Expr(e.Args[2], env), true
			}
			if len(e.Args) == 2 {
				return ev.Expr(e.Args[1], env), true
			}
			if len(e.Args) == 1 { // make(chan T): unbuffered
				return Exact(0), true
			}
		case "append":
			if len(e.Args) == 0 {
				return Top(), false
			}
			// In place or reallocated, append never returns a smaller
			// capacity than its base.
			if base, ok := ev.capOf(e.Args[0], env); ok && base.Known {
				return Range(base.Lo, inf), true
			}
		}
	}
	return Top(), false
}

func typeUnder(info *types.Info, e ast.Expr) types.Type {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	return tv.Type.Underlying()
}

// sideEffects clobbers facts a node's calls or escapes could change: any
// non-builtin call invalidates every dotted path (callees may mutate fields
// through pointers), taking a variable's address or mutating it inside a
// closure drops its fact, and &x kills len(x) (the callee can grow it).
func (ev *IntervalEval) sideEffects(n ast.Node, env *Env[Interval]) {
	ev.sideEffectsExpr(flow.HeaderExpr(n), env)
}

func (ev *IntervalEval) sideEffectsExpr(n ast.Node, env *Env[Interval]) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if isOpaqueCall(ev.Info, m) {
				invalidateDotted(env)
			}
			return true
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				if path, root, ok := PathOf(ev.Info, m.X); ok {
					invalidateRoot(env, rootName(path))
					if root != nil {
						delete(env.Vars, root)
					}
				}
			}
			return true
		case *ast.FuncLit:
			// Assignments inside the literal may run at any later point;
			// captured targets lose their facts now.
			ast.Inspect(m.Body, func(k ast.Node) bool {
				switch k := k.(type) {
				case *ast.AssignStmt:
					for _, l := range k.Lhs {
						ev.dropCaptured(l, env)
					}
				case *ast.IncDecStmt:
					ev.dropCaptured(k.X, env)
				}
				return true
			})
			return false
		}
		return true
	})
}

func (ev *IntervalEval) dropCaptured(l ast.Expr, env *Env[Interval]) {
	if path, root, ok := PathOf(ev.Info, l); ok {
		invalidateRoot(env, rootName(path))
		if root != nil {
			delete(env.Vars, root)
		}
	}
}

// Refine narrows env down a branch edge. cond is the block's condition,
// taken its outcome on this edge.
func (ev *IntervalEval) Refine(cond ast.Expr, taken bool, env *Env[Interval]) {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		ev.Refine(c.X, taken, env)
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			ev.Refine(c.X, !taken, env)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if taken { // both conjuncts hold
				ev.Refine(c.X, true, env)
				ev.Refine(c.Y, true, env)
			}
		case token.LOR:
			if !taken { // both disjuncts fail
				ev.Refine(c.X, false, env)
				ev.Refine(c.Y, false, env)
			}
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			op := c.Op
			if !taken {
				op = negateCmp(op)
			}
			rv := ev.Expr(c.Y, env)
			lv := ev.Expr(c.X, env)
			ev.constrain(c.X, op, rv, env)
			ev.constrain(c.Y, swapCmp(op), lv, env)
		}
	}
}

// constrain intersects the fact slot behind e with the comparison `e op
// bound`.
func (ev *IntervalEval) constrain(e ast.Expr, op token.Token, bound Interval, env *Env[Interval]) {
	e = unparen(e)
	v, path, ok := ev.factSlot(e)
	if !ok {
		return
	}
	cur := ev.Expr(e, env)
	if !cur.Known {
		cur = Range(math.Inf(-1), inf)
		if _, isLen := e.(*ast.CallExpr); isLen {
			cur = Range(0, inf) // len/cap are never negative
		}
	}
	nv := applyCmp(cur, op, bound, ev.isInt(e))
	if !nv.Known {
		return
	}
	if v != nil {
		env.Vars[v] = nv
	} else {
		env.Paths[path] = nv
	}
}

// factSlot maps a guardable expression to its storage: a variable, or a
// rendered path for selectors and len()/cap() calls.
func (ev *IntervalEval) factSlot(e ast.Expr) (v *types.Var, path string, ok bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := objVar(ev.Info, e); ok {
			return v, "", true
		}
	case *ast.SelectorExpr:
		if path, _, ok := PathOf(ev.Info, e); ok {
			return nil, path, true
		}
	case *ast.CallExpr:
		if path, ok := lenKey(ev.Info, e); ok {
			return nil, path, true
		}
	}
	return nil, "", false
}

// ApplyCmp exposes the comparison-intersection primitive for checks that
// seed environments from declarative facts (the contract check turns each
// `//vet:requires x > 0` conjunct into ApplyCmp over an unconstrained slot).
func ApplyCmp(cur Interval, op token.Token, bound Interval, integer bool) Interval {
	return applyCmp(cur, op, bound, integer)
}

// applyCmp intersects cur with `x op bound`, with integer endpoint
// tightening (x < n is x <= n-1 for ints).
func applyCmp(cur Interval, op token.Token, bound Interval, integer bool) Interval {
	eps := 0.0
	if integer {
		eps = 1
	}
	out := cur
	switch op {
	case token.EQL:
		if !bound.Known {
			return cur
		}
		out.Lo = math.Max(out.Lo, bound.Lo)
		out.Hi = math.Min(out.Hi, bound.Hi)
		out.NonZero = out.NonZero || bound.NonZero
	case token.NEQ:
		if bound.Known && bound.Lo == 0 && bound.Hi == 0 {
			out.NonZero = true
		}
		if integer && bound.Known && bound.Lo == bound.Hi {
			if out.Lo == bound.Lo {
				out.Lo++
			}
			if out.Hi == bound.Hi {
				out.Hi--
			}
		}
	case token.LSS:
		if bound.Known && !math.IsInf(bound.Hi, 1) {
			out.Hi = math.Min(out.Hi, bound.Hi-eps)
		}
		if bound.Known && bound.Hi <= 0 && eps == 0 {
			out.NonZero = true // x < y <= 0 means x < 0 even when bounds can't say
		}
	case token.LEQ:
		if bound.Known {
			out.Hi = math.Min(out.Hi, bound.Hi)
		}
	case token.GTR:
		if bound.Known && !math.IsInf(bound.Lo, -1) {
			out.Lo = math.Max(out.Lo, bound.Lo+eps)
		}
		if bound.Known && bound.Lo >= 0 && eps == 0 {
			out.NonZero = true // x > y >= 0 means x > 0
		}
	case token.GEQ:
		if bound.Known {
			out.Lo = math.Max(out.Lo, bound.Lo)
		}
	default:
		return cur
	}
	if out.Lo > out.Hi {
		// Infeasible edge: collapse to a point so downstream reads stay sane.
		out.Hi = out.Lo
	}
	return out.norm()
}

func negateCmp(op token.Token) token.Token {
	switch op {
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	}
	return token.ILLEGAL
}

func swapCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op // ==, != are symmetric
}

// ---- interval arithmetic ----

func negIv(a Interval) Interval {
	if !a.Known {
		return Top()
	}
	return Interval{Lo: -a.Hi, Hi: -a.Lo, NonZero: a.NonZero, Known: true}.norm()
}

func addIv(a, b Interval) Interval {
	if !a.Known || !b.Known {
		return Top()
	}
	return Range(a.Lo+b.Lo, a.Hi+b.Hi)
}

func subIv(a, b Interval) Interval {
	if !a.Known || !b.Known {
		return Top()
	}
	return Range(a.Lo-b.Hi, a.Hi-b.Lo)
}

// mulBound multiplies one pair of bounds, defining 0 * inf as 0 (the product
// interval is built from attainable finite values; infinities only mark
// unboundedness).
func mulBound(a, b float64) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a * b
}

func mulIv(a, b Interval) Interval {
	if !a.Known || !b.Known {
		return Top()
	}
	p1, p2 := mulBound(a.Lo, b.Lo), mulBound(a.Lo, b.Hi)
	p3, p4 := mulBound(a.Hi, b.Lo), mulBound(a.Hi, b.Hi)
	out := Range(math.Min(math.Min(p1, p2), math.Min(p3, p4)),
		math.Max(math.Max(p1, p2), math.Max(p3, p4)))
	out.NonZero = a.NonZero && b.NonZero
	return out.norm()
}

func divIv(a, b Interval, integer bool) Interval {
	if !a.Known || !b.Known {
		return Top()
	}
	// A divisor interval that straddles zero makes the quotient unbounded —
	// unless the NonZero bit excludes zero itself, in which case the sign of
	// the result is still determined when the divisor is sign-definite:
	// a >= 0 over b in (0, hi] stays >= 0 (unbounded above), and mirrored
	// for the other sign combinations. That is exactly the fact an
	// `//vet:ensures ret > 0` on a reciprocal needs.
	if b.Lo <= 0 && b.Hi >= 0 {
		if !b.NonZero {
			return Top()
		}
		nz := a.NonZero && !integer // 1/2 == 0: integer quotients reach zero
		switch {
		case b.Lo >= 0 && a.Lo >= 0: // b in (0, hi], a >= 0
			return Interval{Lo: 0, Hi: inf, NonZero: nz, Known: true}.norm()
		case b.Lo >= 0 && a.Hi <= 0: // b in (0, hi], a <= 0
			return Interval{Lo: math.Inf(-1), Hi: 0, NonZero: nz, Known: true}.norm()
		case b.Hi <= 0 && a.Lo >= 0: // b in [lo, 0), a >= 0
			return Interval{Lo: math.Inf(-1), Hi: 0, NonZero: nz, Known: true}.norm()
		case b.Hi <= 0 && a.Hi <= 0: // b in [lo, 0), a <= 0
			return Interval{Lo: 0, Hi: inf, NonZero: nz, Known: true}.norm()
		}
		return Top()
	}
	q := func(x, y float64) float64 {
		if math.IsInf(y, 0) {
			if math.IsInf(x, 0) {
				return 0 // inf/inf contributes nothing extremal
			}
			return 0
		}
		r := x / y
		if integer {
			return math.Trunc(r)
		}
		return r
	}
	p1, p2 := q(a.Lo, b.Lo), q(a.Lo, b.Hi)
	p3, p4 := q(a.Hi, b.Lo), q(a.Hi, b.Hi)
	out := Range(math.Min(math.Min(p1, p2), math.Min(p3, p4)),
		math.Max(math.Max(p1, p2), math.Max(p3, p4)))
	if integer {
		out.NonZero = false // 1/2 == 0: integer division reaches zero
		out = out.norm()
	} else {
		out.NonZero = a.NonZero
		out = out.norm()
	}
	return out
}

// modIv: |a % b| < |b| with the sign of a (Go semantics).
func modIv(a, b Interval) Interval {
	if !b.Known || !b.NonZero {
		return Top()
	}
	m := math.Max(math.Abs(b.Lo), math.Abs(b.Hi)) - 1
	if m < 0 || math.IsInf(m, 1) {
		return Top()
	}
	lo := -m
	if a.Known && a.Lo >= 0 {
		lo = 0
	}
	return Range(lo, m)
}

// convertIv approximates a numeric conversion: integer targets truncate
// (which can create zero from (0,1) — NonZero is re-derived, never copied).
func convertIv(a Interval, target types.Type) Interval {
	basic, ok := target.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsNumeric == 0 || !a.Known {
		return Top()
	}
	if basic.Info()&types.IsInteger != 0 {
		lo, hi := a.Lo, a.Hi
		if !math.IsInf(lo, -1) {
			lo = math.Floor(lo)
		}
		if !math.IsInf(hi, 1) {
			hi = math.Ceil(hi)
		}
		out := Interval{Lo: lo, Hi: hi, Known: true}
		return out.norm()
	}
	return a
}

// ---- helpers ----

func constFloat(v constant.Value) (float64, bool) {
	switch v.Kind() {
	case constant.Int, constant.Float:
		f, _ := constant.Float64Val(constant.ToFloat(v))
		return f, true
	}
	return 0, false
}

func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// isOpaqueCall reports calls whose side effects we cannot see: everything
// except builtins and type conversions.
func isOpaqueCall(info *types.Info, call *ast.CallExpr) bool {
	if builtinName(info, call) != "" {
		return false
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return false
	}
	return true
}

// lenKey renders a len/cap call over a path-able argument as a fact key.
// len and cap are distinct slots: a make(.., n, c) seeds both, and a guard
// on one must not be read back as the other.
func lenKey(info *types.Info, call *ast.CallExpr) (string, bool) {
	name := builtinName(info, call)
	if (name != "len" && name != "cap") || len(call.Args) != 1 {
		return "", false
	}
	path, _, ok := PathOf(info, call.Args[0])
	if !ok {
		return "", false
	}
	return name + "(" + path + ")", true
}

// staticLen resolves len of fixed-size arrays from the type alone.
func staticLen(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok {
		return 0, false
	}
	return arrayLen(tv.Type)
}

func arrayLen(t types.Type) (int64, bool) {
	if t == nil {
		return 0, false
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		return u.Len(), true
	case *types.Pointer:
		if arr, ok := u.Elem().Underlying().(*types.Array); ok {
			return arr.Len(), true
		}
	}
	return 0, false
}

func (ev *IntervalEval) isInt(e ast.Expr) bool {
	tv, ok := ev.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// bareKey strips a len(...) or cap(...) wrapper off a fact key, leaving the
// underlying path.
func bareKey(k string) string {
	if strings.HasPrefix(k, "len(") || strings.HasPrefix(k, "cap(") {
		return strings.TrimSuffix(k[4:], ")")
	}
	return k
}

// rootName extracts the root identifier of a fact key: "m.dev.TRFCNs",
// "len(m.dev.Rows)", and "cap(m.dev.Rows)" all root at "m".
func rootName(path string) string {
	path = bareKey(path)
	if i := strings.IndexByte(path, '.'); i >= 0 {
		return path[:i]
	}
	return path
}

// invalidateRoot drops every path fact rooted at name (by name: shadowed
// variables over-invalidate, which errs toward silence).
func invalidateRoot(env *Env[Interval], name string) {
	for k := range env.Paths {
		if rootName(k) == name {
			delete(env.Paths, k)
		}
	}
}

// invalidatePrefix drops path and everything nested under it, plus its
// len/cap facts.
func invalidatePrefix(env *Env[Interval], path string) {
	for k := range env.Paths {
		bare := bareKey(k)
		if bare == path || strings.HasPrefix(bare, path+".") {
			delete(env.Paths, k)
		}
	}
}

// invalidateDotted drops every field-path fact but keeps len()/cap() facts of
// plain locals: a callee cannot change the length a caller-held slice header
// sees.
func invalidateDotted(env *Env[Interval]) {
	for k := range env.Paths {
		if strings.Contains(bareKey(k), ".") {
			delete(env.Paths, k)
		}
	}
}
