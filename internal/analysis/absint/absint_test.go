package absint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"testing"

	"mcdvfs/internal/analysis/flow"
)

// load typechecks one synthetic file and returns its functions by name.
func load(t *testing.T, src string) (*types.Info, map[string]*ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "absfix.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("absfix", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	fns := map[string]*ast.FuncDecl{}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fns[fd.Name.Name] = fd
		}
	}
	return info, fns
}

// atExit runs the interval analysis on fn and returns the entry env of the
// exit block (the state after every return path joined — good enough for
// asserting facts that hold on all paths reaching the end).
func intervalAt(t *testing.T, info *types.Info, fn *ast.FuncDecl, name string) (map[*flow.Block]*Env[Interval], *flow.CFG, *IntervalEval) {
	t.Helper()
	ev := &IntervalEval{Info: info}
	cfg := flow.New(fn)
	envs := ev.Interp().Analyze(cfg, NewEnv[Interval]())
	_ = name
	return envs, cfg, ev
}

// factOf finds the interval of the named variable at the entry of the first
// block whose Kind matches kind.
func factOf(t *testing.T, info *types.Info, envs map[*flow.Block]*Env[Interval], cfg *flow.CFG, kind, name string) Interval {
	t.Helper()
	for _, blk := range cfg.Blocks {
		if blk.Kind != kind {
			continue
		}
		env := envs[blk]
		if env == nil {
			t.Fatalf("no env at %s", kind)
		}
		for v, iv := range env.Vars {
			if v.Name() == name {
				return iv
			}
		}
		return Top()
	}
	t.Fatalf("no block of kind %s", kind)
	return Top()
}

func TestIntervalConstantsAndArith(t *testing.T) {
	info, fns := load(t, `package absfix
func F() int {
	a := 3
	b := a * 4
	c := b - 2
	return c
}`)
	envs, cfg, _ := intervalAt(t, info, fns["F"], "F")
	got := factOf(t, info, envs, cfg, "exit", "c")
	if got != Exact(10) {
		t.Errorf("c = %v, want [10, 10]", got)
	}
}

func TestIntervalBranchRefinement(t *testing.T) {
	info, fns := load(t, `package absfix
func F(n int) int {
	if n <= 0 {
		return 0
	}
	x := n
	return x
}`)
	envs, cfg, _ := intervalAt(t, info, fns["F"], "F")
	// In the block after the guard (if.done), n must be >= 1 and NonZero.
	got := factOf(t, info, envs, cfg, "if.done", "n")
	if !got.Known || got.Lo != 1 || !got.NonZero {
		t.Errorf("after guard n = %v, want [1, +inf) nonzero", got)
	}
}

func TestIntervalNeqZeroRefinement(t *testing.T) {
	info, fns := load(t, `package absfix
func F(t float64) float64 {
	if t != 0 {
		return 1 / t
	}
	return 0
}`)
	envs, cfg, ev := intervalAt(t, info, fns["F"], "F")
	for _, blk := range cfg.Blocks {
		if blk.Kind != "if.then" {
			continue
		}
		env := envs[blk]
		for v, iv := range env.Vars {
			if v.Name() == "t" && !iv.NonZero {
				t.Errorf("in then-branch t = %v, want nonzero", iv)
			}
		}
	}
	_ = ev
}

func TestIntervalLoopWidensAndNarrows(t *testing.T) {
	info, fns := load(t, `package absfix
func F(n int) int {
	sum := 0
	for i := 0; i < n; i++ {
		sum += i
	}
	return sum
}`)
	envs, cfg, _ := intervalAt(t, info, fns["F"], "F")
	// At the loop head, i starts at 0 and grows: widening pushes Hi to +inf
	// but Lo must stay 0 (the loop never decrements).
	got := factOf(t, info, envs, cfg, "for.head", "i")
	if !got.Known || got.Lo != 0 {
		t.Errorf("at loop head i = %v, want Lo = 0", got)
	}
	// In the body, the i < n refinement caps nothing absolute (n unknown)
	// but i stays >= 0.
	body := factOf(t, info, envs, cfg, "for.body", "i")
	if !body.Known || body.Lo != 0 {
		t.Errorf("in body i = %v, want Lo = 0", body)
	}
}

func TestIntervalLenGuard(t *testing.T) {
	info, fns := load(t, `package absfix
func F(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}`)
	ev := &IntervalEval{Info: info}
	cfg := flow.New(fns["F"])
	envs := ev.Interp().Analyze(cfg, NewEnv[Interval]())
	// Below the guard the fact len(xs) >= 1 must hold; find the division and
	// check its divisor evaluates nonzero.
	var checked bool
	for _, blk := range cfg.Blocks {
		entry := envs[blk]
		if entry == nil {
			continue
		}
		ev.Interp().Walk(blk, entry, func(n ast.Node, env *Env[Interval]) {
			ast.Inspect(flow.HeaderExpr(n), func(m ast.Node) bool {
				if be, ok := m.(*ast.BinaryExpr); ok && be.Op == token.QUO {
					iv := ev.Expr(be.Y, env)
					if !iv.NonZero {
						t.Errorf("divisor %v not proven nonzero below len guard", iv)
					}
					checked = true
				}
				return true
			})
		})
	}
	if !checked {
		t.Fatal("no division found in fixture")
	}
}

func TestIntervalMakeLen(t *testing.T) {
	info, fns := load(t, `package absfix
func F() int {
	xs := make([]int, 8)
	ys := []string{"a", "b", "c"}
	return len(xs) + len(ys)
}`)
	ev := &IntervalEval{Info: info}
	cfg := flow.New(fns["F"])
	envs := ev.Interp().Analyze(cfg, NewEnv[Interval]())
	exit := envs[cfg.Exit]
	if exit == nil {
		t.Fatal("no exit env")
	}
	if iv, ok := exit.Path("len(xs)"); !ok || iv != Exact(8) {
		t.Errorf("len(xs) = %v (ok=%v), want [8, 8]", iv, ok)
	}
	if iv, ok := exit.Path("len(ys)"); !ok || iv != Exact(3) {
		t.Errorf("len(ys) = %v (ok=%v), want [3, 3]", iv, ok)
	}
}

func TestIntervalDivByZeroSpansTop(t *testing.T) {
	lat := IntervalLattice{}
	q := divIv(Exact(10), Range(-1, 1), false)
	if q.Known {
		t.Errorf("10 / [-1,1] = %v, want top", q)
	}
	// Join with top is top: no evidence survives an unknown path.
	if j := lat.Join(Exact(1), Top()); j.Known {
		t.Errorf("join with top = %v, want top", j)
	}
	// NonZero survives a join whose hull straddles zero: {-2} ∪ {3} never
	// contains 0 even though [-2, 3] does.
	nz := lat.Join(Exact(-2), Exact(3))
	if !nz.Known || !nz.NonZero {
		t.Errorf("[-2,-2] join [3,3] = %v, want nonzero preserved", nz)
	}
	if nz.ContainsZero() {
		t.Errorf("%v reports ContainsZero despite the NonZero bit", nz)
	}
	// But a zero-admitting side poisons the bit.
	z := lat.Join(Exact(0), Exact(3))
	if z.NonZero || !z.ContainsZero() {
		t.Errorf("[0,0] join [3,3] = %v, want zero admitted", z)
	}
}

func TestIntervalWidenNarrow(t *testing.T) {
	lat := IntervalLattice{}
	w := lat.Widen(Range(0, 1), Range(0, 2))
	if !w.Known || w.Lo != 0 || !math.IsInf(w.Hi, 1) {
		t.Errorf("widen = %v, want [0, +inf)", w)
	}
	n := lat.Narrow(w, Range(0, 9))
	if n != Range(0, 9) {
		t.Errorf("narrow = %v, want [0, 9]", n)
	}
	// Narrowing never grows a finite bound.
	n2 := lat.Narrow(Range(0, 5), Range(0, 100))
	if n2.Hi != 5 {
		t.Errorf("narrow grew the bound: %v", n2)
	}
}

func TestIntervalIntConversionKillsNonZero(t *testing.T) {
	iv := convertIv(Interval{Lo: 0.2, Hi: 0.8, NonZero: true, Known: true}, types.Typ[types.Int])
	if iv.NonZero {
		t.Errorf("int(0.2..0.8) = %v, must not be nonzero (truncates to 0)", iv)
	}
	if !iv.Known || iv.Lo != 0 || iv.Hi != 1 {
		t.Errorf("int(0.2..0.8) = %v, want [0, 1]", iv)
	}
}

func TestIntervalCallSummaryHook(t *testing.T) {
	info, fns := load(t, `package absfix
func ladder() int
func F() int {
	f := ladder()
	return 100 / f
}`)
	ev := &IntervalEval{
		Info: info,
		Call: func(call *ast.CallExpr) (Interval, bool) {
			return Range(800, 3200), true
		},
	}
	cfg := flow.New(fns["F"])
	envs := ev.Interp().Analyze(cfg, NewEnv[Interval]())
	exit := envs[cfg.Exit]
	found := false
	for v, iv := range exit.Vars {
		if v.Name() == "f" {
			found = true
			if iv != Range(800, 3200) {
				t.Errorf("f = %v, want [800, 3200]", iv)
			}
			if !iv.NonZero {
				t.Errorf("f = %v should be nonzero", iv)
			}
		}
	}
	if !found {
		t.Error("call summary did not seed f")
	}
}

func TestIntervalCallClobbersFields(t *testing.T) {
	info, fns := load(t, `package absfix
type S struct{ N int }
func (s *S) Bump()
func F(s *S) int {
	s.N = 5
	s.Bump()
	return s.N
}`)
	ev := &IntervalEval{Info: info}
	cfg := flow.New(fns["F"])
	envs := ev.Interp().Analyze(cfg, NewEnv[Interval]())
	exit := envs[cfg.Exit]
	if iv, ok := exit.Path("s.N"); ok {
		t.Errorf("s.N = %v survived an opaque method call, want clobbered", iv)
	}
}

func TestPathOf(t *testing.T) {
	info, fns := load(t, `package absfix
type Inner struct{ V int }
type Outer struct{ In Inner }
func F(o Outer) int {
	return o.In.V
}`)
	var sel *ast.SelectorExpr
	ast.Inspect(fns["F"], func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok && sel == nil {
			sel = s
		}
		return true
	})
	path, root, ok := PathOf(info, sel)
	if !ok || path != "o.In.V" || root == nil || root.Name() != "o" {
		t.Errorf("PathOf = %q root %v ok %v, want o.In.V rooted at o", path, root, ok)
	}
	if rootName("len(o.In.Xs)") != "o" {
		t.Errorf("rootName(len(o.In.Xs)) = %q, want o", rootName("len(o.In.Xs)"))
	}
}
