package analysis

// contract: declarative physical-envelope contracts proven by the interval
// interpreter. Three doc-comment annotations form the surface:
//
//	//vet:requires <expr>   (function doc) — assumed at entry, proven at
//	                        every module-static call site;
//	//vet:ensures <expr>    (function doc) — proven on every return path
//	                        under the requires assumptions;
//	//vet:invariant <expr>  (struct type doc) — assumed wherever a field of
//	                        the type is read, re-proven at the exit of every
//	                        method that writes an invariant field.
//
// <expr> is a conjunction of comparisons over parameters, results ("ret"
// names the single non-error result), receiver fields, and numeric literals:
//
//	expr := cmp { "&&" cmp }
//	cmp  := operand ("<" | "<=" | ">" | ">=" | "==" | "!=") operand
//	operand := number | ident { "." ident }
//
// Verification runs the interval interpreter (internal/analysis/absint) with
// physics seeds — the OPP envelope, the unit seeds, and two-round function
// summaries — and feeds back into them: an `ensures ret >= 0` tightens the
// callee's summary, which sharpens every caller's intervals for other
// contracts.
//
// Obligations follow two different standards on purpose. An `ensures` is an
// opt-in claim by the annotated function, so it is strict: a return path
// where the fact cannot be proven is a finding even when the interval is
// top. A `requires` obligation at a call site runs on the domain's evidence
// semantics: only an argument the analysis KNOWS something about can fail —
// a top argument is silent, because flagging every unannotated caller would
// bury the provable violations. Malformed annotations — unknown verbs, unparsable
// expressions, contract verbs in the wrong place — are diagnostics, never
// silently ignored.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mcdvfs/internal/analysis/absint"
	"mcdvfs/internal/analysis/flow"
)

// cOperand is one side of a comparison: a literal or a dotted path.
type cOperand struct {
	isConst bool
	val     float64
	path    []string
}

func (o cOperand) String() string {
	if o.isConst {
		return trimFloatStr(o.val)
	}
	return strings.Join(o.path, ".")
}

func (o cOperand) root() string {
	if o.isConst || len(o.path) == 0 {
		return ""
	}
	return o.path[0]
}

// conjunct is one comparison of a contract expression, normalized so a
// constant side (if any) sits on the right.
type conjunct struct {
	lhs, rhs cOperand
	op       token.Token
}

func (c conjunct) String() string {
	return c.lhs.String() + " " + c.op.String() + " " + c.rhs.String()
}

// annot is one //vet:requires / ensures / invariant comment, parsed.
type annot struct {
	pos   token.Pos
	kind  string // "requires" | "ensures" | "invariant"
	expr  string // expression text as written
	conjs []conjunct
}

// funcContract aggregates a function's annotations.
type funcContract struct {
	requires []annot
	ensures  []annot
	// params are the callee's parameter names in order, for matching bare
	// requires conjuncts against call arguments; recvName is the receiver's
	// name for conjuncts over a scalar receiver.
	params   []string
	recvName string
}

func (fc *funcContract) reqConjs() []conjunct {
	var out []conjunct
	for _, a := range fc.requires {
		out = append(out, a.conjs...)
	}
	return out
}

func (fc *funcContract) ensConjs() []conjunct {
	var out []conjunct
	for _, a := range fc.ensures {
		out = append(out, a.conjs...)
	}
	return out
}

// contractIssue is a malformed or misplaced annotation, reported by the
// contract check in the package that contains it.
type contractIssue struct {
	pos     token.Pos
	pkgPath string
	msg     string
}

// contractIndex is the module-wide contract table, built once in Prepare and
// read-only afterwards.
type contractIndex struct {
	funcs   map[*types.Func]*funcContract
	typeInv map[*types.TypeName][]annot
	issues  []contractIssue
	// inventory lists every well-formed annotation for -contracts.
	inventory []Contract
}

// Contract is one well-formed annotation, as listed by mcdvfsvet -contracts.
type Contract struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Col    int    `json:"col"`
	Kind   string `json:"kind"`   // requires | ensures | invariant
	Target string `json:"target"` // annotated function or type
	Expr   string `json:"expr"`
}

// parseContractExpr parses the conjunction grammar. The returned conjuncts
// are normalized (constant on the right); a nil error means every conjunct
// parsed.
func parseContractExpr(s string) ([]conjunct, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("missing expression")
	}
	var out []conjunct
	for _, part := range strings.Split(s, "&&") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty conjunct")
		}
		c, err := parseConjunct(part)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func parseConjunct(s string) (conjunct, error) {
	ops := []struct {
		text string
		tok  token.Token
	}{
		{"<=", token.LEQ}, {">=", token.GEQ}, {"==", token.EQL},
		{"!=", token.NEQ}, {"<", token.LSS}, {">", token.GTR},
	}
	at, opLen := -1, 0
	var opTok token.Token
	for _, op := range ops {
		if i := strings.Index(s, op.text); i >= 0 && (at < 0 || i < at || (i == at && len(op.text) > opLen)) {
			at, opLen, opTok = i, len(op.text), op.tok
		}
	}
	if at < 0 {
		return conjunct{}, fmt.Errorf("%q has no comparison operator", s)
	}
	lhsText, rhsText := strings.TrimSpace(s[:at]), strings.TrimSpace(s[at+opLen:])
	if strings.ContainsAny(rhsText, "<>=!") {
		return conjunct{}, fmt.Errorf("%q has more than one comparison operator", s)
	}
	lhs, err := parseOperand(lhsText)
	if err != nil {
		return conjunct{}, err
	}
	rhs, err := parseOperand(rhsText)
	if err != nil {
		return conjunct{}, err
	}
	if lhs.isConst && rhs.isConst {
		return conjunct{}, fmt.Errorf("%q compares two constants", s)
	}
	if lhs.isConst {
		lhs, rhs, opTok = rhs, lhs, swapCmpTok(opTok)
	}
	return conjunct{lhs: lhs, rhs: rhs, op: opTok}, nil
}

func parseOperand(s string) (cOperand, error) {
	if s == "" {
		return cOperand{}, fmt.Errorf("missing operand")
	}
	if c := s[0]; c == '-' || c == '.' || (c >= '0' && c <= '9') {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cOperand{}, fmt.Errorf("%q is not a number", s)
		}
		return cOperand{isConst: true, val: v}, nil
	}
	parts := strings.Split(s, ".")
	for _, p := range parts {
		if !isGoIdent(p) {
			return cOperand{}, fmt.Errorf("%q is not an identifier path", s)
		}
	}
	return cOperand{path: parts}, nil
}

func isGoIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func swapCmpTok(op token.Token) token.Token {
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

func unparenExpr(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func negCmpTok(op token.Token) token.Token {
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

// collectContracts builds the module-wide contract index: every function and
// struct annotation parsed and semantically validated, every malformed or
// misplaced //vet: comment recorded as an issue.
func collectContracts(prog *flow.Program) *contractIndex {
	ix := &contractIndex{
		funcs:   map[*types.Func]*funcContract{},
		typeInv: map[*types.TypeName][]annot{},
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			consumed := map[*ast.Comment]bool{}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					ix.collectFunc(prog.Fset, pkg, d, consumed)
				case *ast.GenDecl:
					if d.Tok == token.TYPE {
						ix.collectType(prog.Fset, pkg, d, consumed)
					}
				}
			}
			// Anything //vet:-shaped not consumed above: unknown verbs
			// anywhere, contract verbs outside the doc position they bind to.
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					verb, _, ok := vetVerb(c.Text)
					if !ok || consumed[c] {
						continue
					}
					switch verb {
					case "requires", "ensures":
						ix.issue(pkg, c.Pos(), "//vet:%s must be in a function's doc comment", verb)
					case "invariant":
						ix.issue(pkg, c.Pos(), "//vet:invariant must be in a struct type's doc comment")
					default:
						ix.issue(pkg, c.Pos(), "unknown //vet: verb %q (known: ensures, invariant, requires)", verb)
					}
				}
			}
		}
	}
	sort.Slice(ix.inventory, func(i, j int) bool {
		a, b := ix.inventory[i], ix.inventory[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return ix
}

// vetVerb splits a //vet: comment into verb and rest.
func vetVerb(text string) (verb, rest string, ok bool) {
	const prefix = "//vet:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	s := strings.TrimPrefix(text, prefix)
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return s[:i], strings.TrimSpace(s[i:]), true
	}
	return s, "", true
}

func (ix *contractIndex) issue(pkg *flow.Package, pos token.Pos, format string, args ...any) {
	ix.issues = append(ix.issues, contractIssue{
		pos: pos, pkgPath: pkg.Path, msg: fmt.Sprintf(format, args...),
	})
}

func (ix *contractIndex) collectFunc(fset *token.FileSet, pkg *flow.Package, fd *ast.FuncDecl, consumed map[*ast.Comment]bool) {
	if fd.Doc == nil {
		return
	}
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	for _, c := range fd.Doc.List {
		verb, rest, ok := vetVerb(c.Text)
		if !ok || (verb != "requires" && verb != "ensures") {
			continue
		}
		consumed[c] = true
		if obj == nil {
			continue
		}
		conjs, err := parseContractExpr(rest)
		if err != nil {
			ix.issue(pkg, c.Pos(), "malformed //vet:%s annotation: %v", verb, err)
			continue
		}
		sc := newFuncScope(obj, fd)
		bad := false
		for _, cj := range conjs {
			for _, side := range []cOperand{cj.lhs, cj.rhs} {
				if msg := sc.validateRoot(side, verb); msg != "" {
					ix.issue(pkg, c.Pos(), "malformed //vet:%s annotation: %s", verb, msg)
					bad = true
				}
			}
		}
		if bad {
			continue
		}
		fc := ix.funcs[obj]
		if fc == nil {
			fc = &funcContract{params: sc.paramNames, recvName: sc.recv}
			ix.funcs[obj] = fc
		}
		a := annot{pos: c.Pos(), kind: verb, expr: rest, conjs: conjs}
		if verb == "requires" {
			fc.requires = append(fc.requires, a)
		} else {
			fc.ensures = append(fc.ensures, a)
		}
		ix.addInventory(fset, c.Pos(), verb, obj.FullName(), rest)
	}
}

func (ix *contractIndex) collectType(fset *token.FileSet, pkg *flow.Package, gd *ast.GenDecl, consumed map[*ast.Comment]bool) {
	docs := []*ast.CommentGroup{gd.Doc}
	specs := make([]*ast.TypeSpec, 0, len(gd.Specs))
	for _, s := range gd.Specs {
		if ts, ok := s.(*ast.TypeSpec); ok {
			specs = append(specs, ts)
			docs = append(docs, ts.Doc)
		}
	}
	for di, doc := range docs {
		if doc == nil {
			continue
		}
		// The GenDecl doc binds to a sole spec; a spec doc binds to its spec.
		var ts *ast.TypeSpec
		if di == 0 {
			if len(specs) == 1 {
				ts = specs[0]
			}
		} else {
			ts = specs[di-1]
		}
		for _, c := range doc.List {
			verb, rest, ok := vetVerb(c.Text)
			if !ok || verb != "invariant" {
				continue
			}
			consumed[c] = true
			if ts == nil {
				ix.issue(pkg, c.Pos(), "//vet:invariant on a grouped type declaration must document one type")
				continue
			}
			st, isStruct := ts.Type.(*ast.StructType)
			if !isStruct {
				ix.issue(pkg, c.Pos(), "//vet:invariant applies only to struct types")
				continue
			}
			tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
			if tn == nil {
				continue
			}
			conjs, err := parseContractExpr(rest)
			if err != nil {
				ix.issue(pkg, c.Pos(), "malformed //vet:invariant annotation: %v", err)
				continue
			}
			fields := map[string]bool{}
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					fields[name.Name] = true
				}
			}
			bad := false
			for _, cj := range conjs {
				for _, side := range []cOperand{cj.lhs, cj.rhs} {
					if root := side.root(); root != "" && !fields[root] {
						ix.issue(pkg, c.Pos(), "malformed //vet:invariant annotation: %q is not a field of %s", root, ts.Name.Name)
						bad = true
					}
				}
			}
			if bad {
				continue
			}
			ix.typeInv[tn] = append(ix.typeInv[tn], annot{pos: c.Pos(), kind: verb, expr: rest, conjs: conjs})
			ix.addInventory(fset, c.Pos(), verb, tn.Pkg().Path()+"."+tn.Name(), rest)
		}
	}
}

func (ix *contractIndex) addInventory(fset *token.FileSet, pos token.Pos, kind, target, expr string) {
	p := fset.Position(pos)
	ix.inventory = append(ix.inventory, Contract{
		File: p.Filename, Line: p.Line, Col: p.Column,
		Kind: kind, Target: target, Expr: expr,
	})
}

// funcScope resolves contract identifiers against one function's signature.
type funcScope struct {
	sig        *types.Signature
	recv       string
	paramNames []string
	params     map[string]*types.Var
	results    map[string]*types.Var
	resultIdx  map[string]int
	// retIdx/retVar identify the single non-error result "ret" names;
	// retIdx is -1 when absent or ambiguous.
	retIdx int
	retVar *types.Var
}

func newFuncScope(obj *types.Func, fd *ast.FuncDecl) *funcScope {
	sig := obj.Type().(*types.Signature)
	sc := &funcScope{
		sig:       sig,
		params:    map[string]*types.Var{},
		results:   map[string]*types.Var{},
		resultIdx: map[string]int{}, retIdx: -1,
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		sc.recv = fd.Recv.List[0].Names[0].Name
		if sc.recv != "" && sc.recv != "_" && sig.Recv() != nil {
			// A scalar named-type receiver (MHz) is a value like any
			// parameter; contracts may constrain it bare.
			sc.params[sc.recv] = sig.Recv()
		}
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		sc.paramNames = append(sc.paramNames, p.Name())
		if p.Name() != "" && p.Name() != "_" {
			sc.params[p.Name()] = p
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		r := sig.Results().At(i)
		if r.Name() != "" && r.Name() != "_" {
			sc.results[r.Name()] = r
			sc.resultIdx[r.Name()] = i
		}
		if r.Type().String() == "error" {
			continue
		}
		if sc.retIdx >= 0 {
			sc.retIdx = -2 // two non-error results: "ret" is ambiguous
			continue
		}
		sc.retIdx, sc.retVar = i, r
	}
	if sc.retIdx == -2 {
		sc.retIdx, sc.retVar = -1, nil
	}
	return sc
}

// validateRoot reports (as a message, "" when fine) an operand whose root
// does not resolve in this function's scope for the given verb.
func (sc *funcScope) validateRoot(o cOperand, verb string) string {
	root := o.root()
	if root == "" {
		return ""
	}
	if _, ok := sc.params[root]; ok {
		return ""
	}
	if root == sc.recv && len(o.path) > 1 {
		return ""
	}
	if verb == "ensures" {
		if root == "ret" {
			if sc.retIdx < 0 {
				return `"ret" needs exactly one non-error result`
			}
			return ""
		}
		if _, ok := sc.results[root]; ok {
			return ""
		}
		return fmt.Sprintf("%q is not a parameter, result, or receiver field path", root)
	}
	return fmt.Sprintf("%q is not a parameter or receiver field path", root)
}

// entryEnv seeds a function's entry environment with its requires conjuncts
// and its receiver type's invariants, intersected with the physics seeds the
// evaluator would otherwise give.
func (ix *contractIndex) entryEnv(obj *types.Func, fd *ast.FuncDecl, ev *absint.IntervalEval) *absint.Env[absint.Interval] {
	env := absint.NewEnv[absint.Interval]()
	if ix == nil {
		return env
	}
	sc := newFuncScope(obj, fd)
	if sc.recv != "" {
		if tn := recvTypeName(sc.sig); tn != nil {
			for _, a := range ix.typeInv[tn] {
				for _, cj := range a.conjs {
					ix.seedConjunct(cj, sc.recv, sc, env, ev)
				}
			}
		}
	}
	if fc := ix.funcs[obj]; fc != nil {
		for _, cj := range fc.reqConjs() {
			ix.seedConjunct(cj, "", sc, env, ev)
		}
	}
	return env
}

// seedConjunct folds one path-vs-const conjunct into env. recvPrefix, when
// non-empty, prefixes bare field paths (invariant conjuncts are written in
// field terms but live under the receiver name). Path-vs-path conjuncts are
// relational and cannot be seeded absolutely; they still participate in
// proving.
func (ix *contractIndex) seedConjunct(cj conjunct, recvPrefix string, sc *funcScope, env *absint.Env[absint.Interval], ev *absint.IntervalEval) {
	if cj.rhs.isConst == false {
		return
	}
	bound := absint.Exact(cj.rhs.val)
	path := cj.lhs.path
	if recvPrefix != "" {
		path = append([]string{recvPrefix}, path...)
	}
	if len(path) == 1 {
		v, ok := sc.params[path[0]]
		if !ok {
			return
		}
		cur, okc := env.Var(v)
		if !okc {
			cur = absint.Range(math.Inf(-1), math.Inf(1))
			if ev.VarSeed != nil {
				if iv, oks := ev.VarSeed(v); oks {
					cur = iv
				}
			}
		}
		nv := absint.ApplyCmp(cur, cj.op, bound, isIntType(v.Type()))
		if nv.Known {
			env.Vars[v] = nv
		}
		return
	}
	key := strings.Join(path, ".")
	cur, okc := env.Path(key)
	if !okc {
		cur = absint.Range(math.Inf(-1), math.Inf(1))
	}
	integer := false
	if root, ok := sc.params[path[0]]; ok {
		integer = isIntFieldPath(root.Type(), path[1:])
	} else if path[0] == recvPrefix && sc.sig.Recv() != nil {
		integer = isIntFieldPath(sc.sig.Recv().Type(), path[1:])
	}
	nv := absint.ApplyCmp(cur, cj.op, bound, integer)
	if nv.Known {
		env.Paths[key] = nv
	}
}

// recvTypeName resolves a method receiver to its named type, through one
// pointer if present.
func recvTypeName(sig *types.Signature) *types.TypeName {
	if sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func isIntType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

func isUnsignedType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsUnsigned != 0
}

// isIntFieldPath walks a dotted field chain from a root type.
func isIntFieldPath(t types.Type, fields []string) bool {
	for _, f := range fields {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return false
		}
		found := false
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == f {
				t, found = st.Field(i).Type(), true
				break
			}
		}
		if !found {
			return false
		}
	}
	return isIntType(t)
}

// invariantFieldSeed is the evaluator's PathSeed extension: a selector whose
// base type carries a //vet:invariant inherits the conjuncts over that
// field, intersected with any unit seed.
func (ix *contractIndex) invariantFieldSeed(info *types.Info, sel *ast.SelectorExpr, unit absint.Interval, unitOK bool) (absint.Interval, bool) {
	if ix == nil {
		return unit, unitOK
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return unit, unitOK
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return unit, unitOK
	}
	annots := ix.typeInv[named.Obj()]
	if len(annots) == 0 {
		return unit, unitOK
	}
	cur, curOK := unit, unitOK
	for _, a := range annots {
		for _, cj := range a.conjs {
			if !cj.rhs.isConst || len(cj.lhs.path) != 1 || cj.lhs.path[0] != sel.Sel.Name {
				continue
			}
			base := cur
			if !curOK {
				base = absint.Range(math.Inf(-1), math.Inf(1))
			}
			nv := absint.ApplyCmp(base, cj.op, absint.Exact(cj.rhs.val), false)
			if nv.Known {
				cur, curOK = nv, true
			}
		}
	}
	return cur, curOK
}

// proves reports whether every (l, r) value pair admitted by the intervals
// satisfies l op r.
func proves(l, r absint.Interval, op token.Token) bool {
	if !l.Known || !r.Known {
		return false
	}
	exactZeroR := r.Lo == 0 && r.Hi == 0
	switch op {
	case token.LSS:
		return l.Hi < r.Lo || (exactZeroR && l.NonZero && l.Hi <= 0)
	case token.LEQ:
		return l.Hi <= r.Lo
	case token.GTR:
		return l.Lo > r.Hi || (exactZeroR && l.NonZero && l.Lo >= 0)
	case token.GEQ:
		return l.Lo >= r.Hi
	case token.EQL:
		return l.Lo == l.Hi && r.Lo == r.Hi && l.Lo == r.Lo
	case token.NEQ:
		return l.Hi < r.Lo || l.Lo > r.Hi || (exactZeroR && l.NonZero)
	}
	return false
}

// violates reports whether NO admitted value pair satisfies l op r.
func violates(l, r absint.Interval, op token.Token) bool {
	return proves(l, r, negCmpTok(op))
}

// contractApplies scopes the check to the model and engine packages; the
// analysis tooling itself (and its fixtures) stays out.
func contractApplies(path string) bool {
	return strings.HasPrefix(path, "mcdvfs/internal/") &&
		!strings.HasPrefix(path, "mcdvfs/internal/analysis")
}

// contractState carries Prepare-computed facts into the concurrent passes.
// Written once in prepare, read-only afterwards.
type contractState struct {
	// opp is the operating-point envelope in MHz, joined over every
	// freq.Ladder call with constant bounds in the module.
	opp   absint.Interval
	oppOK bool
	// summaries maps module functions with one numeric result to the joined
	// interval of their return expressions, refined by their ensures.
	summaries map[*types.Func]absint.Interval
	// contracts indexes //vet:requires / ensures / invariant annotations.
	// Requires seed summary entry environments, ensures tighten the computed
	// summaries, and invariants seed field reads.
	contracts *contractIndex
}

// ContractAnalyzer builds the contract analyzer.
func ContractAnalyzer() *Analyzer {
	st := &contractState{}
	return &Analyzer{
		Name:    "contract",
		Doc:     "//vet:requires / //vet:ensures / //vet:invariant contracts proven by interval analysis: ensures on every return path, requires at every static call site, invariants across mutating methods",
		Applies: contractApplies,
		Prepare: st.prepare,
		Run:     st.run,
	}
}

// ---- interval seeds and function summaries ----
//
// The evaluator consults physics seeds only for values nothing was learned
// about:
//
//   - a literal or constant is its own interval;
//   - len(x) is at least zero, exactly n after make([]T, n) or a composite
//     literal, and grows by k across append(x, e1..ek);
//   - a value whose type or name says MHz inherits the module's operating-
//     point envelope, discovered in Prepare by folding the constant
//     arguments of every freq.Ladder call — the same range the simulator
//     can actually be configured to run at (GHz and Hz scale it);
//   - other physical units (durations, energies, powers, voltages, rates)
//     seed [0, +inf);
//   - function results propagate through per-function summaries computed in
//     Prepare over two deterministic rounds (like the units check), with
//     the callee's name suffix as fallback (dev.RowHitNS() is [0, +inf) by
//     name from any package).

// summaryRounds is how many times prepare re-derives function summaries;
// round n+1 reads round n's results, so two rounds resolve one level of
// call chaining beyond the seeds (matching the units check's depth).
const summaryRounds = 2

func (st *contractState) prepare(prog *flow.Program) {
	st.discoverOPP(prog)
	st.contracts = collectContracts(prog)

	st.summaries = map[*types.Func]absint.Interval{}
	for round := 0; round < summaryRounds; round++ {
		prev := st.summaries
		next := make(map[*types.Func]absint.Interval, len(prev))
		for _, fn := range prog.Funcs() {
			if iv, ok := st.resultInterval(fn, prev); ok {
				next[fn.Obj] = iv
			}
		}
		st.summaries = next
	}
	st.refineWithEnsures(prog)
}

// refineWithEnsures intersects each function summary with its `ret op const`
// ensures conjuncts (and creates summaries from ensures alone for functions
// the interval walk could not summarize). The annotation is a proof
// obligation discharged by the contract check, so treating it as a fact here
// is sound modulo a finding the same run would surface.
func (st *contractState) refineWithEnsures(prog *flow.Program) {
	for _, fn := range prog.Funcs() {
		fc := st.contracts.funcs[fn.Obj]
		if fc == nil || len(fc.ensures) == 0 {
			continue
		}
		sc := newFuncScope(fn.Obj, fn.Decl)
		if sc.retIdx < 0 || sc.retVar == nil {
			continue
		}
		basic, isBasic := sc.retVar.Type().Underlying().(*types.Basic)
		if !isBasic || basic.Info()&types.IsNumeric == 0 {
			continue
		}
		cur, have := st.summaries[fn.Obj]
		if !have {
			cur = absint.Range(math.Inf(-1), math.Inf(1))
		}
		refined := false
		for _, cj := range fc.ensConjs() {
			if !cj.rhs.isConst || len(cj.lhs.path) != 1 {
				continue
			}
			if name := cj.lhs.path[0]; name != "ret" && name != sc.retVar.Name() {
				continue
			}
			nv := absint.ApplyCmp(cur, cj.op, absint.Exact(cj.rhs.val), isIntType(sc.retVar.Type()))
			if nv.Known {
				cur, refined = nv, true
			}
		}
		if refined {
			st.summaries[fn.Obj] = cur
		}
	}
}

// discoverOPP folds the constant bounds of every freq.Ladder(lo, hi, step)
// call in the module into one MHz envelope.
func (st *contractState) discoverOPP(prog *flow.Program) {
	lo, hi := math.Inf(1), math.Inf(-1)
	found := false
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 3 {
					return true
				}
				obj := flow.CalleeObj(pkg.Info, call)
				if obj == nil || obj.Name() != "Ladder" || obj.Pkg() == nil ||
					obj.Pkg().Path() != "mcdvfs/internal/freq" {
					return true
				}
				clo, okLo := constArg(pkg.Info, call.Args[0])
				chi, okHi := constArg(pkg.Info, call.Args[1])
				if okLo && okHi && clo <= chi {
					lo, hi = math.Min(lo, clo), math.Max(hi, chi)
					found = true
				}
				return true
			})
		}
	}
	if found && lo > 0 {
		st.opp, st.oppOK = absint.Range(lo, hi), true
	}
}

func constArg(info *types.Info, e ast.Expr) (float64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		f, _ := constant.Float64Val(constant.ToFloat(tv.Value))
		return f, true
	}
	return 0, false
}

// resultInterval joins the intervals of fn's return expressions, for
// functions whose only non-error result is numeric.
func (st *contractState) resultInterval(fn *flow.Func, prev map[*types.Func]absint.Interval) (absint.Interval, bool) {
	sig, ok := fn.Obj.Type().(*types.Signature)
	if !ok {
		return absint.Top(), false
	}
	resIdx, resVar := -1, (*types.Var)(nil)
	for i := 0; i < sig.Results().Len(); i++ {
		r := sig.Results().At(i)
		if r.Type().String() == "error" {
			continue
		}
		basic, isBasic := r.Type().Underlying().(*types.Basic)
		if !isBasic || basic.Info()&types.IsNumeric == 0 {
			return absint.Top(), false
		}
		if resIdx >= 0 {
			return absint.Top(), false // two numeric results: untracked
		}
		resIdx, resVar = i, r
	}
	if resIdx < 0 {
		return absint.Top(), false
	}

	info := fn.Pkg.Info
	ev := st.newEval(info, prev)
	cfg := fn.CFG()
	// The entry environment carries the function's own requires and its
	// receiver's invariants: a summary is the callee's view, and the callee
	// may assume its contract (call sites discharge it).
	envs := ev.Interp().Analyze(cfg, st.contracts.entryEnv(fn.Obj, fn.Decl, ev))
	joined := absint.Interval{}
	first := true
	lat := absint.IntervalLattice{}
	for _, blk := range cfg.Blocks {
		entry := envs[blk]
		if entry == nil {
			continue
		}
		ev.Interp().Walk(blk, entry, func(n ast.Node, env *absint.Env[absint.Interval]) {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return
			}
			var iv absint.Interval
			switch {
			case resIdx < len(ret.Results):
				iv = ev.Expr(ret.Results[resIdx], env)
			case len(ret.Results) == 0 && resVar.Name() != "":
				// Bare return with named results: read the named result var.
				if v, okv := env.Var(resVar); okv {
					iv = v
				}
			}
			if first {
				joined, first = iv, false
			} else {
				joined = lat.Join(joined, iv)
			}
		})
	}
	if first || !joined.Known {
		return absint.Top(), false
	}
	return joined, true
}

// newEval wires an interval evaluator with the physics seeds and the given
// summary snapshot.
func (st *contractState) newEval(info *types.Info, summaries map[*types.Func]absint.Interval) *absint.IntervalEval {
	var ev *absint.IntervalEval
	ev = &absint.IntervalEval{
		Info: info,
		VarSeed: func(v *types.Var) (absint.Interval, bool) {
			unit := typeUnit(v.Type())
			if unit == "" {
				unit = suffixUnit(v.Name())
			}
			if iv, ok := st.unitSeed(unit); ok {
				return iv, true
			}
			if isUnsignedType(v.Type()) {
				return absint.Range(0, math.Inf(1)), true
			}
			return absint.Top(), false
		},
		PathSeed: func(sel *ast.SelectorExpr) (absint.Interval, bool) {
			unit := ""
			if tv, ok := info.Types[sel]; ok && tv.Type != nil {
				unit = typeUnit(tv.Type)
			}
			if unit == "" {
				unit = suffixUnit(sel.Sel.Name)
			}
			iv, ok := st.unitSeed(unit)
			if !ok {
				if tv, okt := info.Types[sel]; okt && tv.Type != nil && isUnsignedType(tv.Type) {
					iv, ok = absint.Range(0, math.Inf(1)), true
				}
			}
			// A //vet:invariant on the base type narrows the field further.
			return st.contracts.invariantFieldSeed(info, sel, iv, ok)
		},
		CallEnv: func(call *ast.CallExpr, env *absint.Env[absint.Interval]) (absint.Interval, bool) {
			// Monotone math functions map argument bounds to result bounds —
			// the fact that lets int(math.Round(x)) keep x's sign.
			obj := flow.CalleeObj(info, call)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "math" || len(call.Args) != 1 {
				return absint.Top(), false
			}
			var f func(float64) float64
			switch obj.Name() {
			case "Round":
				f = math.Round
			case "Floor":
				f = math.Floor
			case "Ceil":
				f = math.Ceil
			case "Trunc":
				f = math.Trunc
			default:
				return absint.Top(), false
			}
			x := ev.Expr(call.Args[0], env)
			if !x.Known {
				return absint.Top(), false
			}
			return absint.Range(f(x.Lo), f(x.Hi)), true
		},
		Call: func(call *ast.CallExpr) (absint.Interval, bool) {
			obj := flow.CalleeObj(info, call)
			if obj == nil {
				return absint.Top(), false
			}
			if iv, ok := summaries[obj]; ok {
				return iv, true
			}
			if iv, ok := mathSeed(obj); ok {
				return iv, true
			}
			// Fallback: the callee's name suffix is a unit claim good enough
			// to seed a range (RowHitNS() is nanoseconds from any package).
			return st.unitSeed(suffixUnit(obj.Name()))
		},
	}
	return ev
}

// freqScale maps frequency units to their factor relative to MHz; values
// carrying one inherit the operating-point envelope.
var freqScale = map[string]float64{
	"MHz": 1, "GHz": 1e-3, "Hz": 1e6, "kHz": 1e3,
}

// unitSeed turns a unit string into a physics seed.
func (st *contractState) unitSeed(unit string) (absint.Interval, bool) {
	if unit == "" {
		return absint.Top(), false
	}
	if scale, ok := freqScale[unit]; ok {
		if st.oppOK {
			return absint.Range(st.opp.Lo*scale, st.opp.Hi*scale), true
		}
		return absint.Range(0, math.Inf(1)), true
	}
	switch unit {
	case "ns", "us", "ms", "s",
		"J", "mJ", "uJ", "nJ", "pJ", "kJ", "MJ",
		"W", "mW", "uW", "kW",
		"V", "mV", "uV",
		"1/ns", "1/s", "1/cycle",
		"B", "KiB", "MiB", "GiB":
		return absint.Range(0, math.Inf(1)), true
	}
	return absint.Top(), false
}

// mathSeed covers the handful of stdlib results with guaranteed signs.
func mathSeed(obj *types.Func) (absint.Interval, bool) {
	if obj.Pkg() == nil || obj.Pkg().Path() != "math" {
		return absint.Top(), false
	}
	switch obj.Name() {
	case "Abs", "Sqrt":
		return absint.Range(0, math.Inf(1)), true
	case "Exp", "Exp2":
		return absint.Interval{Lo: 0, Hi: math.Inf(1), NonZero: true, Known: true}, true
	}
	return absint.Top(), false
}

// trimFloatStr renders a float bound compactly for messages.
func trimFloatStr(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (st *contractState) run(pass *Pass) {
	if !pass.IncludeSrc {
		return
	}
	ix := st.contracts
	if ix == nil {
		return
	}
	for _, iss := range ix.issues {
		if iss.pkgPath == pass.Pkg.Path {
			pass.Reportf(iss.pos, "%s", iss.msg)
		}
	}
	info := pass.Pkg.Info
	ev := st.newEval(info, st.summaries)
	for _, f := range pass.Pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			st.checkFunc(pass, ev, fd)
		}
	}
}

// checkFunc discharges one function's obligations: its own ensures at every
// return, its callees' requires at every call, and its receiver's invariant
// at exit when the body writes invariant fields.
func (st *contractState) checkFunc(pass *Pass, ev *absint.IntervalEval, fd *ast.FuncDecl) {
	obj, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	ix := st.contracts
	fc := ix.funcs[obj]
	sc := newFuncScope(obj, fd)

	var invConjs []conjunct
	var invTypeName string
	if sc.recv != "" {
		if tn := recvTypeName(sc.sig); tn != nil && len(ix.typeInv[tn]) > 0 {
			written := receiverFieldWrites(pass.Pkg.Info, fd, sc.recv)
			if len(written) > 0 {
				invTypeName = tn.Name()
				for _, a := range ix.typeInv[tn] {
					for _, cj := range a.conjs {
						if written[cj.lhs.root()] || written[cj.rhs.root()] {
							invConjs = append(invConjs, cj)
						}
					}
				}
			}
		}
	}

	var cfg *flow.CFG
	if fn := pass.Prog.FuncOf(obj); fn != nil {
		cfg = fn.CFG()
	} else {
		cfg = flow.New(fd)
	}
	it := ev.Interp()
	envs := it.Analyze(cfg, ix.entryEnv(obj, fd, ev))

	for _, blk := range cfg.Blocks {
		entry := envs[blk]
		if entry == nil {
			continue
		}
		it.Walk(blk, entry, func(n ast.Node, env *absint.Env[absint.Interval]) {
			if ret, ok := n.(*ast.ReturnStmt); ok && fc != nil {
				st.checkEnsures(pass, ev, fc, sc, ret, env)
			}
			st.checkCallRequires(pass, it, ev, flow.HeaderExpr(n), env)
		})
	}

	if len(invConjs) > 0 {
		if exitEnv := envs[cfg.Exit]; exitEnv != nil {
			st.checkInvariantExit(pass, fd, sc, invTypeName, invConjs, exitEnv)
		}
	}
}

// receiverFieldWrites collects the root field names the body assigns through
// the receiver (c.f = ..., c.f += ..., c.f++, c.sub.g = ... roots at "sub").
func receiverFieldWrites(info *types.Info, fd *ast.FuncDecl, recv string) map[string]bool {
	written := map[string]bool{}
	record := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.StarExpr:
				e = x.X
				continue
			}
			break
		}
		// Walk the selector chain down to its root identifier.
		var chain []string
		for {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				chain = append(chain, sel.Sel.Name)
				e = sel.X
				if p, ok := e.(*ast.ParenExpr); ok {
					e = p.X
				}
				if s, ok := e.(*ast.StarExpr); ok {
					e = s.X
				}
				if ix, ok := e.(*ast.IndexExpr); ok {
					e = ix.X
				}
				continue
			}
			break
		}
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != recv || len(chain) == 0 {
			return
		}
		written[chain[len(chain)-1]] = true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				record(l)
			}
		case *ast.IncDecStmt:
			record(n.X)
		}
		return true
	})
	return written
}

// checkEnsures proves every ensures conjunct at one return statement.
func (st *contractState) checkEnsures(pass *Pass, ev *absint.IntervalEval, fc *funcContract, sc *funcScope, ret *ast.ReturnStmt, env *absint.Env[absint.Interval]) {
	for _, cj := range fc.ensConjs() {
		l := st.operandAtReturn(cj.lhs, ret, sc, ev, env)
		r := st.operandAtReturn(cj.rhs, ret, sc, ev, env)
		if proves(l, r, cj.op) {
			continue
		}
		show, iv := cj.lhs.String(), l
		if cj.lhs.isConst {
			show, iv = cj.rhs.String(), r
		}
		if violates(l, r, cj.op) {
			pass.Reportf(ret.Pos(), "return violates ensures %q: %s has range %s", cj.String(), show, iv)
		} else {
			pass.Reportf(ret.Pos(), "cannot prove ensures %q on this return path: %s has range %s", cj.String(), show, iv)
		}
	}
}

// operandAtReturn evaluates one conjunct side at a return site: constants
// are themselves, "ret"/named results read the returned expression (or the
// named result variable on bare returns), parameters and dotted paths read
// the environment with the physics seeds as fallback.
func (st *contractState) operandAtReturn(o cOperand, ret *ast.ReturnStmt, sc *funcScope, ev *absint.IntervalEval, env *absint.Env[absint.Interval]) absint.Interval {
	if o.isConst {
		return absint.Exact(o.val)
	}
	if len(o.path) == 1 {
		name := o.path[0]
		idx, rv := -1, (*types.Var)(nil)
		if name == "ret" && sc.retIdx >= 0 {
			idx, rv = sc.retIdx, sc.retVar
		} else if i, ok := sc.resultIdx[name]; ok {
			idx, rv = i, sc.results[name]
		}
		if idx >= 0 {
			if len(ret.Results) == sc.sig.Results().Len() && idx < len(ret.Results) {
				return ev.Expr(ret.Results[idx], env)
			}
			if len(ret.Results) == 0 && rv != nil {
				if iv, ok := env.Var(rv); ok {
					return iv
				}
			}
			return absint.Top()
		}
		if v, ok := sc.params[name]; ok {
			if iv, ok := env.Var(v); ok {
				return iv
			}
			if ev.VarSeed != nil {
				if iv, ok := ev.VarSeed(v); ok {
					return iv
				}
			}
		}
		return absint.Top()
	}
	if iv, ok := env.Path(strings.Join(o.path, ".")); ok {
		return iv
	}
	return absint.Top()
}

// checkCallRequires discharges callee requires obligations inside one CFG
// node. Only bare-parameter conjuncts with a constant bound are checkable at
// a call site (dotted conjuncts are entry assumptions of the callee), and
// only arguments the analysis holds a fact about can fail.
func (st *contractState) checkCallRequires(pass *Pass, it *absint.Interp[absint.Interval], ev *absint.IntervalEval, n ast.Node, env *absint.Env[absint.Interval]) {
	if n == nil {
		return
	}
	ix := st.contracts
	absint.CondWalk(it, n, env, func(m ast.Node, env *absint.Env[absint.Interval]) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok || call.Ellipsis.IsValid() {
			return true
		}
		obj := flow.CalleeObj(pass.Pkg.Info, call)
		if obj == nil {
			return true
		}
		fc := ix.funcs[obj]
		if fc == nil || len(fc.requires) == 0 {
			return true
		}
		argIdx := map[string]int{}
		for i, name := range fc.params {
			argIdx[name] = i
		}
		for _, cj := range fc.reqConjs() {
			if !cj.rhs.isConst || len(cj.lhs.path) != 1 {
				continue
			}
			var arg ast.Expr
			if fc.recvName != "" && cj.lhs.path[0] == fc.recvName {
				// A conjunct over a scalar receiver binds to the method's
				// base expression (x in x.PeriodNS()).
				if sel, isSel := unparenExpr(call.Fun).(*ast.SelectorExpr); isSel {
					arg = sel.X
				}
			} else if i, ok := argIdx[cj.lhs.path[0]]; ok && i < len(call.Args) {
				arg = call.Args[i]
			}
			if arg == nil {
				continue
			}
			iv := ev.Expr(arg, env)
			if !iv.Known {
				continue // evidence semantics: no fact, no finding
			}
			r := absint.Exact(cj.rhs.val)
			if proves(iv, r, cj.op) {
				continue
			}
			if violates(iv, r, cj.op) {
				pass.Reportf(arg.Pos(), "argument %s violates requires %q of %s (range %s)",
					render(arg), cj.String(), obj.Name(), iv)
			} else {
				pass.Reportf(arg.Pos(), "cannot prove requires %q of %s: argument %s has range %s",
					cj.String(), obj.Name(), render(arg), iv)
			}
		}
		return true
	})
}

// checkInvariantExit re-proves the invariant conjuncts over written fields
// in the joined environment flowing into the method's exit.
func (st *contractState) checkInvariantExit(pass *Pass, fd *ast.FuncDecl, sc *funcScope, typeName string, conjs []conjunct, env *absint.Env[absint.Interval]) {
	for _, cj := range conjs {
		if !cj.rhs.isConst {
			continue
		}
		key := sc.recv + "." + strings.Join(cj.lhs.path, ".")
		l, ok := env.Path(key)
		if !ok {
			l = absint.Top()
		}
		r := absint.Exact(cj.rhs.val)
		if proves(l, r, cj.op) {
			continue
		}
		if violates(l, r, cj.op) {
			pass.Reportf(fd.Body.Rbrace, "method %s violates invariant %q of %s: %s has range %s at exit",
				fd.Name.Name, cj.String(), typeName, cj.lhs.String(), l)
		} else {
			pass.Reportf(fd.Body.Rbrace, "method %s writes %s but cannot re-prove invariant %q of %s at exit (range %s)",
				fd.Name.Name, cj.lhs.String(), cj.String(), typeName, l)
		}
	}
}

// ListContracts loads the matched packages and returns every well-formed
// contract annotation they contain, the -contracts inventory. Malformed
// annotations are diagnostics of a normal run, not inventory entries.
func ListContracts(opts Options) ([]Contract, error) {
	loader, pkgs, err := loadPackages(opts)
	if err != nil {
		return nil, err
	}
	matched := map[string]bool{}
	var fpkgs []*flow.Package
	for _, p := range pkgs {
		matched[p.Path] = true
	}
	for _, p := range loader.Loaded() {
		if matched[p.Path] {
			fpkgs = append(fpkgs, &flow.Package{Path: p.Path, Files: p.Syntax, Types: p.Types, Info: p.Info})
		}
	}
	prog := flow.NewProgram(loader.Fset, fpkgs)
	ix := collectContracts(prog)
	out := ix.inventory
	if out == nil {
		out = []Contract{}
	}
	return out, nil
}

// RelContractsTo rewrites inventory file paths relative to base, like RelTo.
func RelContractsTo(cs []Contract, base string) {
	for i := range cs {
		if rel, err := filepath.Rel(base, cs[i].File); err == nil && !filepath.IsAbs(rel) {
			cs[i].File = filepath.ToSlash(rel)
		}
	}
}
