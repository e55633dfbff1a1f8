package flow

// Golden tests: testdata/flowfix.go.src is parsed and type-checked, every
// function gets its CFG and def-use chains dumped, and the rendering is
// compared against testdata/{cfg,defuse}.golden. Regenerate with:
//
//	go test ./internal/analysis/flow -update

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func loadFixture(t *testing.T) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("testdata", "flowfix.go.src"), nil, parser.ParseComments)
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
	if _, err := conf.Check("flowfix", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return fset, f, info
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("dump differs from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

func TestCFGGolden(t *testing.T) {
	fset, f, _ := loadFixture(t)
	var b strings.Builder
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "func %s:\n%s\n", fd.Name.Name, New(fd).Dump(fset))
	}
	checkGolden(t, "cfg.golden", b.String())
}

func TestDefUseGolden(t *testing.T) {
	fset, f, info := loadFixture(t)
	var b strings.Builder
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		du := BuildDefUse(New(fd), info)
		fmt.Fprintf(&b, "func %s:\n%s\n", fd.Name.Name, du.Dump(fset))
	}
	checkGolden(t, "defuse.golden", b.String())
}

// fixtureFuncs indexes the fixture's declarations by name.
func fixtureFuncs(f *ast.File) map[string]*ast.FuncDecl {
	fns := map[string]*ast.FuncDecl{}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fns[fd.Name.Name] = fd
		}
	}
	return fns
}

// TestDefUseRangeLoop asserts the chains errflow relies on over a range
// loop: the key/value defs at the header reach the body uses, and the
// accumulator's body def flows around the back edge to itself.
func TestDefUseRangeLoop(t *testing.T) {
	fset, f, info := loadFixture(t)
	fd := fixtureFuncs(f)["RangeCaptures"]
	du := BuildDefUse(New(fd), info)

	byName := map[string][]*Def{}
	for _, d := range du.Defs {
		byName[d.Obj.Name()] = append(byName[d.Obj.Name()], d)
	}
	for _, name := range []string{"i", "v"} {
		defs := byName[name]
		if len(defs) != 1 {
			t.Fatalf("RangeCaptures: want 1 def of %s at the range header, got %d", name, len(defs))
		}
		if len(du.UsedBy[defs[0]]) == 0 {
			t.Errorf("RangeCaptures: range def of %s has no body uses", name)
		}
		if defs[0].Node == nil {
			t.Errorf("RangeCaptures: range def of %s should carry the RangeStmt node", name)
		} else if _, ok := defs[0].Node.(*ast.RangeStmt); !ok {
			t.Errorf("RangeCaptures: def of %s not attached to the RangeStmt, got %T", name, defs[0].Node)
		}
	}
	// sum has two defs (init, +=); the += def must reach its own use via the
	// back edge, and both defs must reach the return.
	sums := byName["sum"]
	if len(sums) != 2 {
		t.Fatalf("RangeCaptures: want 2 defs of sum, got %d", len(sums))
	}
	for _, d := range sums {
		found := false
		for _, use := range du.UsedBy[d] {
			if fset.Position(use.Pos()).Line > fset.Position(d.Pos).Line {
				found = true
			}
		}
		if !found {
			t.Errorf("RangeCaptures: def of sum at %v reaches no later use (return unreached)", fset.Position(d.Pos))
		}
	}
	bodyDef := sums[1]
	selfUse := false
	for _, use := range du.UsedBy[bodyDef] {
		if use.Pos() == bodyDef.Pos {
			selfUse = true // the += LHS reads the value flowing around the loop
		}
	}
	if !selfUse {
		t.Errorf("RangeCaptures: sum += def does not reach its own read through the back edge")
	}
}

// TestDefUseClosureCapture asserts the closure asymmetry: captured-variable
// reads inside a literal are uses of the outer defs, while defs inside the
// literal do not kill (or appear among) the outer function's defs.
func TestDefUseClosureCapture(t *testing.T) {
	fset, f, info := loadFixture(t)
	fd := fixtureFuncs(f)["ClosureCapture"]
	du := BuildDefUse(New(fd), info)

	var totalDef *Def
	for _, d := range du.Defs {
		if d.Obj.Name() == "total" {
			if totalDef != nil {
				t.Fatalf("ClosureCapture: total defined twice in the outer chain (closure def leaked): %v and %v",
					fset.Position(totalDef.Pos), fset.Position(d.Pos))
			}
			totalDef = d
		}
	}
	if totalDef == nil {
		t.Fatal("ClosureCapture: no def of total")
	}
	// total := n is used twice inside the literal (read at +=, read at return).
	uses := du.UsedBy[totalDef]
	if len(uses) < 2 {
		t.Fatalf("ClosureCapture: captured total should have its in-literal reads as uses, got %d", len(uses))
	}
	for _, u := range uses {
		if u.Pos() <= totalDef.Pos {
			t.Errorf("ClosureCapture: use at %v precedes the def", fset.Position(u.Pos()))
		}
	}
}

// TestEveryPathHits drives the path query against hand-picked spots in the
// fixture: the goroutine in Spawn is joined by the <-done receive on the
// only path to exit, while Reassigned's second err definition reaches
// return on every path without a use.
func TestEveryPathHits(t *testing.T) {
	_, f, info := loadFixture(t)
	fns := map[string]*ast.FuncDecl{}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fns[fd.Name.Name] = fd
		}
	}

	// Spawn: from the go statement, every path must pass the <-done receive.
	spawn := fns["Spawn"]
	var goStmt ast.Node
	ast.Inspect(spawn.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goStmt = g
		}
		return true
	})
	recv := func(n ast.Node) bool {
		hit := false
		ast.Inspect(HeaderExpr(n), func(m ast.Node) bool {
			if u, ok := m.(*ast.UnaryExpr); ok && u.Op.String() == "<-" {
				hit = true
			}
			return !hit
		})
		return hit
	}
	if !EveryPathHits(New(spawn), goStmt, recv) {
		t.Errorf("Spawn: the <-done receive should satisfy every path from the go statement")
	}

	// Reassigned: the second definition of err is never used before return.
	re := fns["Reassigned"]
	du := BuildDefUse(New(re), info)
	var second *Def
	for _, d := range du.Defs {
		if d.Obj.Name() == "err" && d.Node != nil {
			if second == nil || d.Pos > second.Pos {
				second = d
			}
		}
	}
	if second == nil {
		t.Fatal("Reassigned: no err definition found")
	}
	if len(du.UsedBy[second]) != 0 {
		t.Errorf("Reassigned: second err def should have no uses, got %d", len(du.UsedBy[second]))
	}
	used := func(n ast.Node) bool {
		hit := false
		ast.Inspect(HeaderExpr(n), func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				for _, ds := range du.Uses[id] {
					if ds == second {
						hit = true
					}
				}
			}
			return !hit
		})
		return hit
	}
	if EveryPathHits(New(re), second.Node, used) {
		t.Errorf("Reassigned: second err def must have an unused path to exit")
	}
}
