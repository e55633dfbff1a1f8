// Package absint is the abstract-interpretation layer of mcdvfsvet: a
// generic join-semilattice fixpoint engine over the flow package's
// per-function CFGs, plus the concrete domain the suite ships: intervals
// (interval.go).
//
// The engine is deliberately classical. Abstract states are environments
// mapping variables (and a few tracked l-value paths like "s.Requests" or
// "len(xs)") to domain values; blocks are processed over a worklist in
// reverse postorder; the heads of natural loops — found via the flow
// package's dominator tree — are widening points, so every analysis
// terminates regardless of how the domain's chains behave; a bounded
// narrowing pass afterwards claws back the precision widening gave up (the
// standard [0,+inf] back to [0,len-1] recovery). Branch refinement hooks into
// the CFG's typed edges: when a block ends in a condition, the engine hands
// the domain the condition plus the edge's truth before joining into the
// successor, which is how "if insts == 0 { return }" proves the divisor
// nonzero below the guard.
//
// Interprocedural transfer mirrors the units check: callers compute
// per-function summaries (result ranges, parameter demands) in an analyzer's
// Prepare hook and feed them back through the domain's evaluation callbacks.
// The engine itself never resolves a call — it stays usable for any domain.
//
// Everything is stdlib-only (go/ast, go/types), like the rest of the suite.
package absint

import (
	"go/ast"
	"go/token"
	"go/types"

	"mcdvfs/internal/analysis/flow"
)

// Lattice is a join-semilattice with widening and narrowing over values V.
// Join must be an upper bound; Widen must additionally guarantee that any
// ascending chain of repeated widenings stabilizes; Narrow(prev, next)
// refines prev toward next without dropping below the true fixpoint.
type Lattice[V any] interface {
	Join(a, b V) V
	Widen(prev, next V) V
	Narrow(prev, next V) V
	Equal(a, b V) bool
}

// Env is one abstract state: named facts over function-local variables and
// over rendered l-value paths ("m.dev.TREFIns", "len(points)"). A key that is
// absent carries no information — domains treat it as their top.
type Env[V any] struct {
	Vars  map[*types.Var]V
	Paths map[string]V
}

// NewEnv returns an empty environment.
func NewEnv[V any]() *Env[V] {
	return &Env[V]{Vars: map[*types.Var]V{}, Paths: map[string]V{}}
}

// Clone deep-copies the environment's maps (values are copied as values;
// domains use immutable value types).
func (e *Env[V]) Clone() *Env[V] {
	c := &Env[V]{Vars: make(map[*types.Var]V, len(e.Vars)), Paths: make(map[string]V, len(e.Paths))}
	for k, v := range e.Vars {
		c.Vars[k] = v
	}
	for k, v := range e.Paths {
		c.Paths[k] = v
	}
	return c
}

// Var returns the fact for v, reporting whether one exists.
func (e *Env[V]) Var(v *types.Var) (V, bool) {
	val, ok := e.Vars[v]
	return val, ok
}

// Path returns the fact for a rendered path, reporting whether one exists.
func (e *Env[V]) Path(p string) (V, bool) {
	val, ok := e.Paths[p]
	return val, ok
}

// joinInto merges src into dst under lat, keeping only keys present in both
// (a key absent on one side is top, and join with top is top). combine is
// lat.Join, lat.Widen, or lat.Narrow. Returns whether dst changed.
func joinInto[V any](lat Lattice[V], dst, src *Env[V], combine func(a, b V) V) bool {
	changed := false
	for k, dv := range dst.Vars {
		sv, ok := src.Vars[k]
		if !ok {
			delete(dst.Vars, k)
			changed = true
			continue
		}
		nv := combine(dv, sv)
		if !lat.Equal(nv, dv) {
			dst.Vars[k] = nv
			changed = true
		}
	}
	for k, dv := range dst.Paths {
		sv, ok := src.Paths[k]
		if !ok {
			delete(dst.Paths, k)
			changed = true
			continue
		}
		nv := combine(dv, sv)
		if !lat.Equal(nv, dv) {
			dst.Paths[k] = nv
			changed = true
		}
	}
	return changed
}

// Interp drives one domain over one CFG. Transfer applies a CFG node's
// effect to the environment in place. Refine (optional) applies a branch
// condition's outcome to the environment flowing down a true/false edge.
type Interp[V any] struct {
	Lat      Lattice[V]
	Transfer func(n ast.Node, env *Env[V])
	Refine   func(cond ast.Expr, taken bool, env *Env[V])
}

// narrowRounds bounds the descending sequence after stabilization. Two
// rounds recover the common patterns (a widened loop counter clamped back by
// its exit test); deeper recovery is not worth unbounded iteration.
const narrowRounds = 2

// Analyze runs the fixpoint and returns the environment at each block's
// entry. The entry block starts from entryEnv (seeded parameters); the
// caller keeps ownership of entryEnv and may not mutate it afterwards.
func (it *Interp[V]) Analyze(cfg *flow.CFG, entryEnv *Env[V]) map[*flow.Block]*Env[V] {
	heads := cfg.LoopHeads()

	// Reverse postorder gives the worklist a processing priority that visits
	// loop bodies before re-visiting their heads.
	rpo := rpoOrder(cfg)
	prio := make(map[*flow.Block]int, len(rpo))
	for i, blk := range rpo {
		prio[blk] = i
	}

	in := map[*flow.Block]*Env[V]{cfg.Entry: entryEnv.Clone()}
	work := map[*flow.Block]bool{cfg.Entry: true}
	pop := func() *flow.Block {
		best, bestP := (*flow.Block)(nil), int(^uint(0)>>1)
		for blk := range work {
			if p, ok := prio[blk]; ok && p < bestP {
				best, bestP = blk, p
			}
		}
		if best != nil {
			delete(work, best)
		}
		return best
	}

	flowEdge := func(blk *flow.Block, out *Env[V], widen bool) {
		for i, succ := range blk.Succs {
			edgeEnv := out.Clone()
			if it.Refine != nil && blk.Cond != nil {
				switch blk.SuccKinds[i] {
				case flow.EdgeTrue:
					it.Refine(blk.Cond, true, edgeEnv)
				case flow.EdgeFalse:
					it.Refine(blk.Cond, false, edgeEnv)
				}
			}
			prev, seen := in[succ]
			if !seen {
				in[succ] = edgeEnv
				work[succ] = true
				continue
			}
			combine := it.Lat.Join
			if widen && heads[succ] {
				combine = it.Lat.Widen
			}
			if joinInto(it.Lat, prev, edgeEnv, combine) {
				work[succ] = true
			}
		}
	}

	for {
		blk := pop()
		if blk == nil {
			break
		}
		out := in[blk].Clone()
		for _, n := range blk.Nodes {
			it.Transfer(n, out)
		}
		flowEdge(blk, out, true)
	}

	// Descending (narrowing) rounds: recompute every block's input from its
	// predecessors' refined outputs, narrowing at the widening points.
	for round := 0; round < narrowRounds; round++ {
		changed := false
		for _, blk := range rpo {
			if blk == cfg.Entry {
				continue
			}
			var merged *Env[V]
			for _, p := range blk.Preds {
				pin, ok := in[p]
				if !ok {
					continue
				}
				out := pin.Clone()
				for _, n := range p.Nodes {
					it.Transfer(n, out)
				}
				if it.Refine != nil && p.Cond != nil {
					for i, s := range p.Succs {
						if s != blk {
							continue
						}
						switch p.SuccKinds[i] {
						case flow.EdgeTrue:
							it.Refine(p.Cond, true, out)
						case flow.EdgeFalse:
							it.Refine(p.Cond, false, out)
						}
						break
					}
				}
				if merged == nil {
					merged = out
				} else {
					joinInto(it.Lat, merged, out, it.Lat.Join)
				}
			}
			if merged == nil {
				continue
			}
			prev, ok := in[blk]
			if !ok {
				continue
			}
			next := prev.Clone()
			if heads[blk] {
				// Narrow only keeps refinements; it never widens back up.
				narrowEnv(it.Lat, next, merged)
			} else {
				replaceEnv(next, merged)
			}
			if !envEqual(it.Lat, prev, next) {
				in[blk] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return in
}

// narrowEnv applies lat.Narrow pointwise; keys only present in merged are
// adopted (they are refinements discovered on the descending pass).
func narrowEnv[V any](lat Lattice[V], dst, merged *Env[V]) {
	for k, dv := range dst.Vars {
		if mv, ok := merged.Vars[k]; ok {
			dst.Vars[k] = lat.Narrow(dv, mv)
		}
	}
	for k, mv := range merged.Vars {
		if _, ok := dst.Vars[k]; !ok {
			dst.Vars[k] = mv
		}
	}
	for k, dv := range dst.Paths {
		if mv, ok := merged.Paths[k]; ok {
			dst.Paths[k] = lat.Narrow(dv, mv)
		}
	}
	for k, mv := range merged.Paths {
		if _, ok := dst.Paths[k]; !ok {
			dst.Paths[k] = mv
		}
	}
}

// replaceEnv overwrites dst with merged's facts.
func replaceEnv[V any](dst, merged *Env[V]) {
	dst.Vars = make(map[*types.Var]V, len(merged.Vars))
	for k, v := range merged.Vars {
		dst.Vars[k] = v
	}
	dst.Paths = make(map[string]V, len(merged.Paths))
	for k, v := range merged.Paths {
		dst.Paths[k] = v
	}
}

func envEqual[V any](lat Lattice[V], a, b *Env[V]) bool {
	if len(a.Vars) != len(b.Vars) || len(a.Paths) != len(b.Paths) {
		return false
	}
	for k, av := range a.Vars {
		bv, ok := b.Vars[k]
		if !ok || !lat.Equal(av, bv) {
			return false
		}
	}
	for k, av := range a.Paths {
		bv, ok := b.Paths[k]
		if !ok || !lat.Equal(av, bv) {
			return false
		}
	}
	return true
}

// Walk replays one block from its fixpoint entry state, calling visit with
// the environment in force immediately BEFORE each node's transfer. This is
// how checks read the state at a division or a map write.
func (it *Interp[V]) Walk(blk *flow.Block, entry *Env[V], visit func(n ast.Node, env *Env[V])) {
	env := entry.Clone()
	for _, n := range blk.Nodes {
		visit(n, env)
		it.Transfer(n, env)
	}
}

// CondWalk visits every node inside n with the environment in force at
// that point, cloning and refining across short-circuit operators: the
// right operand of && is visited under the left operand assumed true, the
// right operand of || under the left assumed false. Without this, a site
// like `p == nil || use(p.F)` reads p's unrefined merge state and reports
// a dereference the short-circuit makes unreachable. Function literals are
// never descended into — their bodies run under their own state, not the
// enclosing function's. visit returning false skips the node's subtree.
func CondWalk[V any](it *Interp[V], n ast.Node, env *Env[V], visit func(n ast.Node, env *Env[V]) bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case nil:
			return false
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if m.Op == token.LAND || m.Op == token.LOR {
				if !visit(m, env) {
					return false
				}
				CondWalk(it, m.X, env, visit)
				renv := env.Clone()
				if it.Refine != nil {
					it.Refine(m.X, m.Op == token.LAND, renv)
				}
				CondWalk(it, m.Y, renv, visit)
				return false
			}
		}
		return visit(m, env)
	})
}

// rpoOrder returns the blocks reachable from the entry in reverse postorder.
func rpoOrder(cfg *flow.CFG) []*flow.Block {
	var order []*flow.Block
	seen := make([]bool, len(cfg.Blocks))
	var walk func(*flow.Block)
	walk = func(blk *flow.Block) {
		seen[blk.Index] = true
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				walk(s)
			}
		}
		order = append(order, blk)
	}
	walk(cfg.Entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// PathOf renders an l-value as a stable dotted path ("m.dev.TREFIns"),
// returning the root variable so facts can be invalidated when the root is
// reassigned or escapes into a call. ok is false for anything that is not a
// chain of field selections over a variable.
func PathOf(info *types.Info, e ast.Expr) (path string, root *types.Var, ok bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return PathOf(info, e.X)
	case *ast.Ident:
		v, isVar := objVar(info, e)
		if !isVar {
			return "", nil, false
		}
		return e.Name, v, true
	case *ast.SelectorExpr:
		base, root, ok := PathOf(info, e.X)
		if !ok {
			return "", nil, false
		}
		return base + "." + e.Sel.Name, root, true
	}
	return "", nil, false
}

func objVar(info *types.Info, id *ast.Ident) (*types.Var, bool) {
	if v, ok := info.Uses[id].(*types.Var); ok && v != nil {
		return v, true
	}
	if v, ok := info.Defs[id].(*types.Var); ok && v != nil {
		return v, true
	}
	return nil, false
}
