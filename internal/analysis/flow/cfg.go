// Package flow is the dataflow substrate under mcdvfsvet's interprocedural
// checks: per-function control-flow graphs built straight from go/ast (no
// x/tools, matching the suite's zero-dependency contract), reaching
// definitions with def-use chains over those CFGs, an every-path reachability
// query, and a module-wide function index that resolves static call sites so
// facts (unit summaries, join obligations) can propagate across call
// boundaries.
//
// The CFG is deliberately SSA-lite. Blocks hold the original ast nodes in
// evaluation order — statements, plus loop/branch condition expressions,
// which occupy their own header slots so a use inside a condition is ordered
// correctly against the defs around it. Edges model Go's structured control
// flow (if/for/range/switch/type-switch/select, labeled break/continue,
// goto, fallthrough); return and calls to the panic builtin edge to a single
// synthetic exit block. That is exactly enough graph for the checks built on
// top: "does every path from this goroutine spawn pass a join", "does some
// path reach return without reading this error".
package flow

import (
	"go/ast"
	"go/token"
)

// EdgeKind classifies one outgoing CFG edge for condition-sensitive
// analyses. Most edges are EdgeNext; the two successors of a block that ends
// in a boolean condition (if header, for header) are EdgeTrue and EdgeFalse,
// which is what lets an abstract domain refine "x != 0" differently down the
// two arms.
type EdgeKind uint8

const (
	// EdgeNext is an unconditional (or unclassified) edge.
	EdgeNext EdgeKind = iota
	// EdgeTrue is taken when the block's Cond evaluates true.
	EdgeTrue
	// EdgeFalse is taken when the block's Cond evaluates false.
	EdgeFalse
)

// Block is one basic block: nodes that execute in sequence, then a branch.
type Block struct {
	// Index is the block's position in CFG.Blocks, assigned in creation
	// order with the synthetic exit always last.
	Index int
	// Kind names the construct that created the block ("entry", "exit",
	// "if.then", "for.head", ...) for dumps and debugging.
	Kind string
	// Nodes are the ast nodes evaluated in this block, in order. Statements
	// appear whole (a CallExpr inside an ExprStmt is found by inspection);
	// if/for/switch conditions appear as bare ast.Expr entries in their
	// header block.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs []*Block
	Preds []*Block
	// SuccKinds classifies each Succs entry; the two slices stay parallel.
	SuccKinds []EdgeKind
	// Cond is the boolean expression whose outcome selects between this
	// block's EdgeTrue and EdgeFalse successors, nil when the block ends
	// unconditionally. It is always also the last condition node in Nodes.
	Cond ast.Expr
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Fn is the *ast.FuncDecl or *ast.FuncLit the graph was built from.
	Fn ast.Node
	// Blocks lists every reachable block; Blocks[0] is the entry, the last
	// entry is the synthetic exit every return edges to.
	Blocks []*Block
	// Entry and Exit alias the first and last entries of Blocks.
	Entry, Exit *Block
}

// FuncBody returns the body of a FuncDecl or FuncLit, or nil.
func FuncBody(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// FuncType returns the signature of a FuncDecl or FuncLit, or nil.
func FuncType(fn ast.Node) *ast.FuncType {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Type
	case *ast.FuncLit:
		return fn.Type
	}
	return nil
}

// New builds the CFG for fn, which must be an *ast.FuncDecl or *ast.FuncLit
// with a non-nil body. Nested function literals are opaque: their bodies get
// their own CFGs, never edges into the enclosing one.
func New(fn ast.Node) *CFG {
	b := &builder{cfg: &CFG{Fn: fn}}
	entry := b.newBlock("entry")
	b.exit = &Block{Kind: "exit"} // appended (and indexed) in finish
	cur := b.stmtList(FuncBody(fn).List, entry)
	if cur != nil {
		b.edge(cur, b.exit) // fallthrough off the end is an implicit return
	}
	b.resolveGotos()
	return b.finish()
}

// builder carries the work-in-progress graph and the branch-target stacks.
type builder struct {
	cfg  *CFG
	exit *Block
	// targets is the stack of enclosing breakable/continuable constructs.
	targets []target
	// labels maps label names to their blocks for goto resolution; gotos
	// holds forward references.
	labels map[string]*Block
	gotos  []pendingGoto
	// curLabel is the label attached to the next loop/switch/select, so
	// `break L` and `continue L` resolve to the right construct.
	curLabel string
	// fallthroughTo is the next case block while building a switch clause.
	fallthroughTo *Block
}

type target struct {
	label          string
	breakTo        *Block // nil means break not applicable
	continueTo     *Block // nil for switch/select
	acceptsBreak   bool
	acceptsContinu bool
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	b.edgeKind(from, to, EdgeNext)
}

func (b *builder) edgeKind(from, to *Block, kind EdgeKind) {
	from.Succs = append(from.Succs, to)
	from.SuccKinds = append(from.SuccKinds, kind)
}

// stmtList threads a statement sequence through cur, returning the live-out
// block (nil when control cannot fall off the end).
func (b *builder) stmtList(list []ast.Stmt, cur *Block) *Block {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after return/branch: still build it (a label
			// inside may be a goto target) from a fresh predecessor-less
			// block, which finish() prunes if it stays unreachable.
			cur = b.newBlock("unreachable")
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

// stmt adds one statement to the graph, returning the block control flows
// out of, or nil when the statement never falls through.
func (b *builder) stmt(s ast.Stmt, cur *Block) *Block {
	label := b.curLabel
	b.curLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(s.List, cur)

	case *ast.LabeledStmt:
		// The labeled statement starts its own block so goto can target it.
		blk := b.newBlock("label." + s.Label.Name)
		b.edge(cur, blk)
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = blk
		b.curLabel = s.Label.Name
		return b.stmt(s.Stmt, blk)

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		b.edge(cur, b.exit)
		return nil

	case *ast.BranchStmt:
		return b.branch(s, cur)

	case *ast.IfStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Cond)
		cur.Cond = s.Cond
		then := b.newBlock("if.then")
		b.edgeKind(cur, then, EdgeTrue)
		thenOut := b.stmtList(s.Body.List, then)
		var elseOut, elseIn *Block
		if s.Else != nil {
			elseIn = b.newBlock("if.else")
			b.edgeKind(cur, elseIn, EdgeFalse)
			elseOut = b.stmt(s.Else, elseIn)
		}
		if s.Else == nil {
			// No else: the false edge falls through to the join.
			join := b.newBlock("if.done")
			b.edgeKind(cur, join, EdgeFalse)
			if thenOut != nil {
				b.edge(thenOut, join)
			}
			return join
		}
		if thenOut == nil && elseOut == nil {
			return nil
		}
		join := b.newBlock("if.done")
		if thenOut != nil {
			b.edge(thenOut, join)
		}
		if elseOut != nil {
			b.edge(elseOut, join)
		}
		return join

	case *ast.ForStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		head := b.newBlock("for.head")
		b.edge(cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			head.Cond = s.Cond
		}
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		if s.Cond != nil {
			b.edgeKind(head, body, EdgeTrue)
			b.edgeKind(head, done, EdgeFalse)
		} else {
			b.edge(head, body)
		}
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
		}
		b.push(label, done, post)
		bodyOut := b.stmtList(s.Body.List, body)
		b.pop()
		if bodyOut != nil {
			b.edge(bodyOut, post)
		}
		return done

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		// The RangeStmt node itself sits in the header: X is used there,
		// Key/Value are (re)defined there on each iteration.
		head.Nodes = append(head.Nodes, s)
		b.edge(cur, head)
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.edge(head, body)
		b.edge(head, done)
		b.push(label, done, head)
		bodyOut := b.stmtList(s.Body.List, body)
		b.pop()
		if bodyOut != nil {
			b.edge(bodyOut, head)
		}
		return done

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		if s.Tag != nil {
			cur.Nodes = append(cur.Nodes, s.Tag)
		}
		return b.switchBody(label, s.Body.List, cur, "switch")

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Assign)
		return b.switchBody(label, s.Body.List, cur, "typeswitch")

	case *ast.SelectStmt:
		return b.selectBody(label, s.Body.List, cur)

	default:
		// Plain statements: assignments, declarations, expression and send
		// statements, go, defer, inc/dec, empty. A call to the panic builtin
		// terminates the path.
		cur.Nodes = append(cur.Nodes, s)
		if isPanic(s) {
			b.edge(cur, b.exit)
			return nil
		}
		return cur
	}
}

// switchBody wires the case clauses of a switch or type switch.
func (b *builder) switchBody(label string, clauses []ast.Stmt, cur *Block, kind string) *Block {
	done := b.newBlock(kind + ".done")
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		blocks[i] = b.newBlock(kind + ".case")
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(cur, blocks[i])
	}
	if !hasDefault {
		b.edge(cur, done)
	}
	b.push(label, done, nil)
	prevFall := b.fallthroughTo
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		blk := blocks[i]
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		b.fallthroughTo = nil
		if i+1 < len(clauses) {
			b.fallthroughTo = blocks[i+1]
		}
		out := b.stmtList(cc.Body, blk)
		if out != nil {
			b.edge(out, done)
		}
	}
	b.fallthroughTo = prevFall
	b.pop()
	return done
}

// selectBody wires a select statement: every comm clause is a successor of
// the header (an empty select, or one with no default, simply has fewer
// fall-through edges — a select with no cases blocks forever and gets none).
func (b *builder) selectBody(label string, clauses []ast.Stmt, cur *Block) *Block {
	done := b.newBlock("select.done")
	b.push(label, done, nil)
	for _, c := range clauses {
		cc := c.(*ast.CommClause)
		blk := b.newBlock("select.case")
		b.edge(cur, blk)
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		out := b.stmtList(cc.Body, blk)
		if out != nil {
			b.edge(out, done)
		}
	}
	b.pop()
	return done
}

// branch resolves break, continue, goto, and fallthrough.
func (b *builder) branch(s *ast.BranchStmt, cur *Block) *Block {
	cur.Nodes = append(cur.Nodes, s)
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.breakTo != nil && (name == "" || t.label == name) {
				b.edge(cur, t.breakTo)
				return nil
			}
		}
	case token.CONTINUE:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.continueTo != nil && (name == "" || t.label == name) {
				b.edge(cur, t.continueTo)
				return nil
			}
		}
	case token.GOTO:
		b.gotos = append(b.gotos, pendingGoto{from: cur, label: name})
		return nil
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.edge(cur, b.fallthroughTo)
		}
		return nil
	}
	return nil
}

func (b *builder) push(label string, breakTo, continueTo *Block) {
	b.targets = append(b.targets, target{label: label, breakTo: breakTo, continueTo: continueTo})
}

func (b *builder) pop() { b.targets = b.targets[:len(b.targets)-1] }

func (b *builder) resolveGotos() {
	for _, g := range b.gotos {
		if blk, ok := b.labels[g.label]; ok {
			b.edge(g.from, blk)
		}
	}
}

// isPanic reports whether s is a bare call to the panic builtin.
func isPanic(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// finish prunes blocks unreachable from the entry, appends the exit block,
// renumbers, and fills predecessor lists.
func (b *builder) finish() *CFG {
	c := b.cfg
	reach := map[*Block]bool{}
	var walk func(*Block)
	walk = func(blk *Block) {
		if reach[blk] {
			return
		}
		reach[blk] = true
		for _, s := range blk.Succs {
			walk(s)
		}
	}
	walk(c.Blocks[0])
	kept := c.Blocks[:0]
	for _, blk := range c.Blocks {
		if reach[blk] {
			kept = append(kept, blk)
		}
	}
	c.Blocks = append(kept, b.exit)
	for i, blk := range c.Blocks {
		blk.Index = i
		blk.Preds = nil
	}
	for _, blk := range c.Blocks {
		// Drop edges into pruned blocks (possible via break targets of
		// dead constructs), then fill preds. SuccKinds stays parallel.
		live := blk.Succs[:0]
		kinds := blk.SuccKinds[:0]
		for i, s := range blk.Succs {
			if reach[s] || s == b.exit {
				live = append(live, s)
				kinds = append(kinds, blk.SuccKinds[i])
			}
		}
		blk.Succs, blk.SuccKinds = live, kinds
	}
	for _, blk := range c.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	c.Entry = c.Blocks[0]
	c.Exit = b.exit
	return c
}
