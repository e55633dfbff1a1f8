package analysis

// The driver: expand → load (parallel) → prepare → run (parallel) →
// suppress → sort. cmd/mcdvfsvet is a thin flag-parsing shell over
// Run; tests call Run directly with ScopeAll to point every check at fixture
// packages.
//
// Parallelism shape: package loading fans out over a bounded worker pool
// (the loader's per-path flights dedup shared dependencies), then the
// per-package analyzer passes fan out the same way. Everything that orders
// output — suppression filtering, staleness, sorting — stays serial, so two
// runs over the same tree produce byte-identical reports regardless of
// worker count. That property is load-bearing: CI diffs mcdvfsvet -json
// output between branches.

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"mcdvfs/internal/analysis/flow"
)

// Options configures one driver run.
type Options struct {
	// Patterns are package patterns: directories, or "dir/..." recursive
	// walks. Empty defaults to "./...".
	Patterns []string
	// Dir anchors module discovery and relative patterns; "" means the
	// current directory.
	Dir string
	// Disable names checks to skip.
	Disable map[string]bool
	// ScopeAll ignores every check's package scoping and test opt-in,
	// running everything everywhere. Fixture tests use it so a check can be
	// pointed at testdata packages whose import paths its scope would never
	// match.
	ScopeAll bool
	// Workers bounds the load/check worker pool; <=0 means GOMAXPROCS.
	Workers int
}

// Run executes the suite and returns the surviving diagnostics in stable
// order. A non-nil error means the run itself failed (unparsable source,
// type errors, bad pattern) — distinct from "found violations".
func Run(opts Options) ([]Diagnostic, error) {
	res, err := execute(opts)
	if err != nil {
		return nil, err
	}
	return res.diags, nil
}

// ListWaivers executes the suite and returns every //lint:allow directive in
// the matched packages, with staleness computed against the run's raw
// diagnostics. All checks are force-enabled: a waiver's liveness is only
// meaningful if its check actually ran.
func ListWaivers(opts Options) ([]Waiver, error) {
	opts.Disable = nil
	res, err := execute(opts)
	if err != nil {
		return nil, err
	}
	return res.waivers, nil
}

// result is one run's full outcome.
type result struct {
	diags   []Diagnostic
	waivers []Waiver
}

// loadPackages loads the packages opts matches, in the order Expand lists
// them: patterns ("./..." when there are none) resolve against opts.Dir,
// not the process cwd, and the packages load in parallel over
// opts.workers(). The first load error in that order wins, so failures
// are as deterministic as successes. The loader keeps every module
// package it saw, dependencies included.
func loadPackages(opts Options) (*Loader, []*Package, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, nil, err
	}
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	resolved := make([]string, len(patterns))
	for i, p := range patterns {
		if filepath.IsAbs(p) {
			resolved[i] = p
		} else {
			resolved[i] = filepath.Join(dir, p)
		}
	}
	dirs, err := loader.Expand(resolved)
	if err != nil {
		return nil, nil, err
	}
	if len(dirs) == 0 {
		return nil, nil, fmt.Errorf("analysis: no packages match %v", opts.Patterns)
	}
	pkgs := make([]*Package, len(dirs))
	loadErrs := make([]error, len(dirs))
	forEach(len(dirs), opts.workers(), func(i int) {
		pkgs[i], loadErrs[i] = loader.LoadDir(dirs[i])
	})
	for _, err := range loadErrs {
		if err != nil {
			return nil, nil, err
		}
	}
	return loader, pkgs, nil
}

// workers is the worker-pool bound: opts.Workers, or GOMAXPROCS.
func (opts Options) workers() int {
	if opts.Workers > 0 {
		return opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func execute(opts Options) (*result, error) {
	loader, pkgs, err := loadPackages(opts)
	if err != nil {
		return nil, err
	}

	// The Program spans every module package the loader saw — the matched
	// ones plus their transitive module dependencies — so call-graph
	// summaries cross package boundaries even when only one package is in
	// the pattern.
	var fpkgs []*flow.Package
	for _, p := range loader.Loaded() {
		fpkgs = append(fpkgs, &flow.Package{Path: p.Path, Files: p.Syntax, Types: p.Types, Info: p.Info})
	}
	prog := flow.NewProgram(loader.Fset, fpkgs)

	suite := Suite()
	known := map[string]bool{LintCheckName: true}
	for _, a := range suite {
		known[a.Name] = true
	}

	// Suppressions merge across packages (keys carry filenames, so the merge
	// is collision-free); waivers and malformed-directive reports accumulate
	// in package order.
	sup := make(suppressions)
	var waivers []Waiver
	var lintDiags []Diagnostic
	for _, pkg := range pkgs {
		allFiles := append(append([]*ast.File(nil), pkg.Syntax...), pkg.TestSyntax...)
		s, w, bad := collectSuppressions(pkg.Fset, allFiles, known)
		for k := range s {
			sup[k] = true
		}
		waivers = append(waivers, w...)
		lintDiags = append(lintDiags, bad...)
	}

	// Prepare hooks run serially, before any pass: summaries they compute
	// are read concurrently afterwards.
	for _, a := range suite {
		if a.Prepare != nil && !opts.Disable[a.Name] {
			a.Prepare(prog)
		}
	}

	// covered records which checks ran over which files, the precondition
	// for calling one of that file's waivers stale.
	covered := map[string]map[string]bool{}
	var coveredMu sync.Mutex
	markCovered := func(check string, files []*ast.File, fset *token.FileSet) {
		coveredMu.Lock()
		defer coveredMu.Unlock()
		for _, f := range files {
			name := fset.Position(f.Pos()).Filename
			if covered[name] == nil {
				covered[name] = map[string]bool{}
			}
			covered[name][check] = true
		}
	}

	// Per-package passes fan out; raw diagnostics land in per-(package,
	// analyzer) buckets so the serial filtering below sees a deterministic
	// stream.
	raw := make([][][]Diagnostic, len(pkgs))
	forEach(len(pkgs), opts.workers(), func(i int) {
		pkg := pkgs[i]
		raw[i] = make([][]Diagnostic, len(suite))
		for ai, a := range suite {
			if opts.Disable[a.Name] {
				continue
			}
			src := opts.ScopeAll || a.Applies(pkg.Path)
			tests := opts.ScopeAll || (a.AnalyzeTests != nil && a.AnalyzeTests(pkg.Path))
			if !src && !tests {
				continue
			}
			if src {
				markCovered(a.Name, pkg.Syntax, pkg.Fset)
			}
			if tests {
				markCovered(a.Name, pkg.TestSyntax, pkg.Fset)
			}
			pass := &Pass{
				Pkg:          pkg,
				Prog:         prog,
				IncludeSrc:   src,
				IncludeTests: tests,
			}
			pass.report = func(d Diagnostic) {
				d.Check = a.Name
				raw[i][ai] = append(raw[i][ai], d)
			}
			a.Run(pass)
		}
	})

	// Serial filtering: waived diagnostics drop out and mark their keys
	// used; everything else survives.
	used := map[allowKey]bool{}
	var diags []Diagnostic
	for i := range raw {
		for _, ds := range raw[i] {
			diags = append(diags, sup.filter(ds, used)...)
		}
	}

	// Staleness: a waiver whose check ran over its file but absorbed nothing
	// is dead weight. The lint pseudo-check itself is exempt (its
	// diagnostics — including these — are produced after filtering, so
	// liveness would be self-referential).
	for i := range waivers {
		w := &waivers[i]
		if w.Check == LintCheckName || opts.Disable[w.Check] {
			continue
		}
		if !covered[w.File][w.Check] {
			continue
		}
		if used[allowKey{w.File, w.Line, w.Check}] || used[allowKey{w.File, w.Line + 1, w.Check}] {
			continue
		}
		w.Stale = true
		lintDiags = append(lintDiags, Diagnostic{
			File: w.File, Line: w.Line, Col: w.Col,
			Check:   LintCheckName,
			Message: fmt.Sprintf("stale lint:allow %s waiver: no %s finding on this or the next line", w.Check, w.Check),
		})
	}
	if !opts.Disable[LintCheckName] {
		diags = append(diags, sup.filter(lintDiags, used)...)
	}

	SortDiagnostics(diags)
	sort.Slice(waivers, func(i, j int) bool {
		a, b := waivers[i], waivers[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Check < b.Check
	})
	return &result{diags: diags, waivers: waivers}, nil
}

// forEach runs fn(0..n-1) over a bounded worker pool.
func forEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// RelTo rewrites diagnostic file paths relative to base where possible, for
// stable human-readable and golden output.
func RelTo(diags []Diagnostic, base string) {
	for i := range diags {
		if rel, err := filepath.Rel(base, diags[i].File); err == nil && !filepath.IsAbs(rel) {
			diags[i].File = filepath.ToSlash(rel)
		}
	}
}

// RelWaiversTo does the same for waiver listings.
func RelWaiversTo(ws []Waiver, base string) {
	for i := range ws {
		if rel, err := filepath.Rel(base, ws[i].File); err == nil && !filepath.IsAbs(rel) {
			ws[i].File = filepath.ToSlash(rel)
		}
	}
}
