package flow

// Every-path reachability: the query shape shared by the goleak and errflow
// checks. Starting from a node (a goroutine spawn, an error definition), an
// execution path is "satisfied" once it reaches a node for which ok reports
// true; it "fails" if it reaches the function exit — or a node for which bad
// reports true — while still unsatisfied. The checks ask for the universally
// quantified version: does EVERY path satisfy before failing?

import "go/ast"

// EveryPathHits reports whether every control-flow path starting immediately
// after `from` reaches a node satisfying ok before reaching the exit block or
// a node satisfying bad. A node satisfying both counts as ok (evaluation
// inside one statement happens before its own redefinition takes effect).
// bad may be nil. If from is not found in the graph, the result is false.
func EveryPathHits(c *CFG, from ast.Node, ok func(ast.Node) bool, bad func(ast.Node) bool) bool {
	startBlk, startIdx := c.find(from)
	if startBlk == nil {
		return false
	}
	// visited guards blocks entered at their top while unsatisfied; loops
	// revisiting such a block cannot produce a new outcome.
	visited := map[*Block]bool{}
	var walk func(blk *Block, idx int) bool
	walk = func(blk *Block, idx int) bool {
		for i := idx; i < len(blk.Nodes); i++ {
			n := blk.Nodes[i]
			if ok(n) {
				return true
			}
			if bad != nil && bad(n) {
				return false
			}
		}
		if blk == c.Exit {
			return false
		}
		if len(blk.Succs) == 0 {
			// A block that ends without successors (select{} with no cases)
			// never reaches exit: vacuously satisfied.
			return true
		}
		for _, s := range blk.Succs {
			if s == c.Exit {
				return false
			}
			if visited[s] {
				continue
			}
			visited[s] = true
			if !walk(s, 0) {
				return false
			}
		}
		return true
	}
	return walk(startBlk, startIdx+1)
}

// find locates the block and in-block index of a node. Exact identity wins;
// only if the node is not itself a CFG node does containment resolve it to
// an enclosing node's slot (a call inside an assignment). The identity pass
// runs first because a statement in a range body is syntactically contained
// in the RangeStmt header node yet belongs to its own body block.
func (c *CFG) find(target ast.Node) (*Block, int) {
	for _, blk := range c.Blocks {
		for i, n := range blk.Nodes {
			if n == target {
				return blk, i
			}
		}
	}
	for _, blk := range c.Blocks {
		for i, n := range blk.Nodes {
			if _, isRange := n.(*ast.RangeStmt); isRange {
				continue // body statements have their own blocks
			}
			if contains(n, target) {
				return blk, i
			}
		}
	}
	return nil, 0
}

// HeaderExpr maps a CFG node to the subtree actually evaluated at its slot:
// for a RangeStmt header that is the range operand, for everything else the
// node itself. Checks inspecting node contents must use this so a range
// body is not double-scanned at the header.
func HeaderExpr(n ast.Node) ast.Node {
	if r, ok := n.(*ast.RangeStmt); ok {
		return r.X
	}
	return n
}

// contains reports whether inner occurs within the subtree of outer.
func contains(outer, inner ast.Node) bool {
	if outer == nil {
		return false
	}
	if inner.Pos() < outer.Pos() || inner.End() > outer.End() {
		return false
	}
	found := false
	ast.Inspect(outer, func(n ast.Node) bool {
		if n == inner {
			found = true
		}
		return !found
	})
	return found
}
