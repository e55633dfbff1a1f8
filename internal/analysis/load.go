package analysis

// Package loading without x/tools: a module-aware loader that resolves
// intra-module import paths by walking the repository and everything else
// (the standard library) through go/importer's source importer. The loader
// exists so the analyzer suite can type-check the whole module offline with
// zero dependencies beyond the Go toolchain's own source tree.
//
// The loader is safe for concurrent LoadDir calls: each import path is
// type-checked exactly once behind a per-path flight, concurrent requests
// for the same path wait on the winner, and a waits-for walk turns the
// mutual-import deadlock (only reachable from already-illegal Go) into an
// error instead of a hang. The standard-library source importer is not
// documented concurrency-safe, so it sits behind its own mutex — stdlib
// type-checking serializes, module packages and the analyzer passes over
// them parallelize.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Loader loads and type-checks packages of a single module.
type Loader struct {
	Fset    *token.FileSet
	modPath string
	modRoot string

	mu      sync.Mutex
	flights map[string]*pkgFlight // import path -> load in progress or done
}

// The standard library never changes while a process runs, and go/importer's
// source importer re-type-checks it from scratch per instance — by far the
// most expensive part of a cold run (a full std walk dwarfs the module's own
// type-check). One process-wide importer serves every Loader, so repeated
// Run calls — the fixture tests, an editor loop, the benchmark — pay for the
// stdlib exactly once. It owns a private FileSet: stdlib object positions
// resolve only against that set, which is safe because diagnostics only
// ever point into module syntax. The source importer is not
// documented concurrency-safe, so all access serializes behind stdImportMu —
// stdlib type-checking serializes, module packages and the analyzer passes
// over them parallelize.
var (
	stdImportMu   sync.Mutex
	stdImportFset = token.NewFileSet()
	stdImporter   = importer.ForCompiler(stdImportFset, "source", nil)
)

// pkgFlight is one package's load: done closes when pkg/err are final.
// waitingOn names the import path this flight's owner is currently blocked
// on, for deadlock detection across flights.
type pkgFlight struct {
	done      chan struct{}
	pkg       *Package
	err       error
	waitingOn string
}

// NewLoader builds a loader for the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:    token.NewFileSet(),
		modPath: modPath,
		modRoot: root,
		flights: make(map[string]*pkgFlight),
	}, nil
}

// Loaded returns every successfully loaded module package, sorted by import
// path — the set the flow.Program indexes, including transitive
// dependencies of the requested patterns.
func (l *Loader) Loaded() []*Package {
	l.mu.Lock()
	defer l.mu.Unlock()
	var pkgs []*Package
	for _, f := range l.flights {
		select {
		case <-f.done:
			if f.err == nil {
				pkgs = append(pkgs, f.pkg)
			}
		default:
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs
}

// findModule walks up from dir to the enclosing go.mod and reads its module
// path.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", errors.New("analysis: no go.mod found; run from inside the module")
		}
		dir = parent
	}
}

// chainImporter implements types.Importer for one package under check,
// threading the chain of in-progress import paths so same-goroutine cycles
// are detected directly.
type chainImporter struct {
	l     *Loader
	chain []string
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	l := c.l
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.load(path, filepath.Join(l.modRoot, rel), c.chain)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	stdImportMu.Lock()
	defer stdImportMu.Unlock()
	return stdImporter.Import(path)
}

// LoadDir loads and type-checks the package in dir (non-test files), parsing
// its _test.go files syntax-only alongside. Results are cached by import
// path, so shared dependencies type-check once no matter how many goroutines
// ask.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.dirImportPath(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path, dir, nil)
}

// load returns the package for an import path, joining an in-flight load or
// owning a new one. chain holds the import paths the calling flight is in
// the middle of loading, for cycle detection.
func (l *Loader) load(path, dir string, chain []string) (*Package, error) {
	for _, p := range chain {
		if p == path {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
	}
	l.mu.Lock()
	if f, ok := l.flights[path]; ok {
		// Another flight owns this path. Before waiting, walk the waits-for
		// chain: if it leads back to a path we are loading, two flights are
		// waiting on each other through a (necessarily illegal) mutual
		// import — fail instead of deadlocking.
		if len(chain) > 0 {
			owner := chain[len(chain)-1]
			for hop, seen := path, map[string]bool{}; hop != "" && !seen[hop]; {
				seen[hop] = true
				for _, p := range chain {
					if hop == p {
						l.mu.Unlock()
						return nil, fmt.Errorf("analysis: import cycle through %s", path)
					}
				}
				next, ok := l.flights[hop]
				if !ok {
					break
				}
				hop = next.waitingOn
				_ = owner
			}
			if of, ok := l.flights[owner]; ok {
				of.waitingOn = path
				defer func() {
					l.mu.Lock()
					of.waitingOn = ""
					l.mu.Unlock()
				}()
			}
		}
		l.mu.Unlock()
		<-f.done
		return f.pkg, f.err
	}
	f := &pkgFlight{done: make(chan struct{})}
	l.flights[path] = f
	l.mu.Unlock()

	f.pkg, f.err = l.loadFresh(path, dir, append(chain, path))
	close(f.done)
	return f.pkg, f.err
}

// loadFresh parses and type-checks one package; the caller owns its flight.
func (l *Loader) loadFresh(path, dir string, chain []string) (*Package, error) {
	srcs, tests, err := splitGoFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	parse := func(names []string) ([]*ast.File, error) {
		files := make([]*ast.File, 0, len(names))
		for _, name := range names {
			f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	syntax, err := parse(srcs)
	if err != nil {
		return nil, err
	}
	testSyntax, err := parse(tests)
	if err != nil {
		return nil, err
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: &chainImporter{l: l, chain: chain},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, syntax, info)
	if len(typeErrs) > 0 {
		const max = 5
		if len(typeErrs) > max {
			typeErrs = append(typeErrs[:max], fmt.Errorf("... and %d more", len(typeErrs)-max))
		}
		return nil, fmt.Errorf("analysis: type-checking %s failed: %w", path, errors.Join(typeErrs...))
	}

	return &Package{
		Path:       path,
		Dir:        dir,
		Fset:       l.Fset,
		Syntax:     syntax,
		TestSyntax: testSyntax,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// dirImportPath maps a directory inside the module to its import path.
func (l *Loader) dirImportPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.modRoot)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// splitGoFiles lists dir's Go files split into sources and tests, sorted so
// parse order (and therefore diagnostic order) is deterministic.
func splitGoFiles(dir string) (srcs, tests []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, name)
		} else {
			srcs = append(srcs, name)
		}
	}
	sort.Strings(srcs)
	sort.Strings(tests)
	return srcs, tests, nil
}

// Expand resolves command-line patterns to package directories. "./..."
// (or "dir/...") walks recursively; other patterns name single directories.
// testdata, vendor, and hidden directories are skipped, matching the go
// tool's convention — analyzer fixtures under testdata never load here.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		base = filepath.Clean(strings.TrimSuffix(base, "/"))
		if base == "" {
			base = "."
		}
		abs, err := filepath.Abs(base)
		if err != nil {
			return nil, err
		}
		if !recursive {
			add(abs)
			continue
		}
		err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != abs && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			srcs, _, err := splitGoFiles(p)
			if err != nil {
				return err
			}
			if len(srcs) > 0 {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}
