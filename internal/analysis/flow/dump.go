package flow

// Textual dumps of CFGs and def-use chains, consumed by the golden tests.
// The format is deliberately position-based (L<line>.<col>) so a golden file
// pins the exact shape of the graph against the fixture source.

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Dump renders the CFG, one block per line.
func (c *CFG) Dump(fset *token.FileSet) string {
	var b strings.Builder
	for _, blk := range c.Blocks {
		fmt.Fprintf(&b, "b%d %s:", blk.Index, blk.Kind)
		for _, n := range blk.Nodes {
			fmt.Fprintf(&b, " %s@L%d", nodeLabel(n), fset.Position(n.Pos()).Line)
		}
		if len(blk.Succs) > 0 {
			b.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&b, " b%d", s.Index)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Dump renders every definition with the uses it reaches.
func (d *DefUse) Dump(fset *token.FileSet) string {
	defs := append([]*Def(nil), d.Defs...)
	sort.Slice(defs, func(i, j int) bool {
		if defs[i].Pos != defs[j].Pos {
			return defs[i].Pos < defs[j].Pos
		}
		return defs[i].Obj.Name() < defs[j].Obj.Name()
	})
	var b strings.Builder
	for _, def := range defs {
		p := fset.Position(def.Pos)
		kind := "def"
		if def.Node == nil {
			kind = "param"
		}
		fmt.Fprintf(&b, "%s %s@L%d.%d", kind, def.Obj.Name(), p.Line, p.Column)
		uses := append([]*ast.Ident(nil), d.UsedBy[def]...)
		sort.Slice(uses, func(i, j int) bool { return uses[i].Pos() < uses[j].Pos() })
		if len(uses) > 0 {
			b.WriteString(" -> uses")
			for _, u := range uses {
				up := fset.Position(u.Pos())
				fmt.Fprintf(&b, " L%d.%d", up.Line, up.Column)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// nodeLabel names a CFG node compactly: statements by their kind, lifted
// condition expressions as "cond".
func nodeLabel(n ast.Node) string {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return "assign"
	case *ast.ReturnStmt:
		return "return"
	case *ast.ExprStmt:
		return "expr"
	case *ast.DeclStmt:
		return "decl"
	case *ast.IncDecStmt:
		return "incdec"
	case *ast.GoStmt:
		return "go"
	case *ast.DeferStmt:
		return "defer"
	case *ast.SendStmt:
		return "send"
	case *ast.RangeStmt:
		return "range"
	case *ast.BranchStmt:
		return strings.ToLower(n.Tok.String())
	case *ast.EmptyStmt:
		return "empty"
	case ast.Stmt:
		return strings.TrimSuffix(strings.TrimPrefix(fmt.Sprintf("%T", n), "*ast."), "Stmt")
	default:
		return "cond"
	}
}
