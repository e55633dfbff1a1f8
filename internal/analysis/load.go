package analysis

// Package loading through the go command. One `go list -e -deps -export
// -json` call expands the patterns and names every package they reach, in
// dependency order, with the compiled export data of each. The standard
// library is imported from that export data; the module's own packages are
// parsed and type-checked from source, one after another in go list's
// order, so every check gets syntax, types.Info and test-file syntax.
//
// The go command decides what a package is: "./..." skips testdata, "_"
// and "." directories, and a file a build constraint excludes is never
// read. A package that does not compile fails the run with the go
// command's message. The `go` on PATH runs, and it must be the toolchain
// this package was built with: the importer compiled in here reads that
// toolchain's export data.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listedPackage is the part of one `go list -json` record the loader reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	Standard     bool
	DepOnly      bool
	Error        *struct{ Err string }
}

// goList runs go list in dir and decodes its records.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Export,Standard,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var listed []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("analysis: go list: %w", err)
		}
		listed = append(listed, p)
	}
	return listed, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadPackages lists the packages opts matches ("./..." when there are no
// patterns) in opts.Dir and loads them. It returns the matched packages in
// go list's order and every module package it loaded, the matched ones'
// module dependencies included: the set flow.Program indexes. The first
// package go list reports broken fails the run.
func loadPackages(opts Options) (fset *token.FileSet, matched, module []*Package, err error) {
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(opts.Dir, patterns)
	if err != nil {
		return nil, nil, nil, err
	}
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Error != nil {
			return nil, nil, nil, fmt.Errorf("analysis: %s", strings.TrimSpace(p.Error.Err))
		}
		exports[p.ImportPath] = p.Export
	}

	fset = token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("analysis: go list named no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return std.Import(path)
	})
	for _, p := range listed {
		if p.Standard {
			continue
		}
		pkg, err := checkPackage(fset, imp, p)
		if err != nil {
			return nil, nil, nil, err
		}
		checked[p.ImportPath] = pkg.Types
		module = append(module, pkg)
		if !p.DepOnly {
			matched = append(matched, pkg)
		}
	}
	if len(matched) == 0 {
		return nil, nil, nil, fmt.Errorf("analysis: no packages match %v", opts.Patterns)
	}
	return fset, matched, module, nil
}

// checkPackage parses one listed package and type-checks its non-test files,
// parsing its _test.go files syntax-only alongside.
func checkPackage(fset *token.FileSet, imp types.Importer, p listedPackage) (*Package, error) {
	parse := func(names []string) ([]*ast.File, error) {
		files := make([]*ast.File, 0, len(names))
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	syntax, err := parse(p.GoFiles)
	if err != nil {
		return nil, err
	}
	tests := append(append([]string(nil), p.TestGoFiles...), p.XTestGoFiles...)
	sort.Strings(tests)
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
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(p.ImportPath, fset, syntax, info)
	if len(typeErrs) > 0 {
		const max = 5
		if len(typeErrs) > max {
			typeErrs = append(typeErrs[:max], fmt.Errorf("... and %d more", len(typeErrs)-max))
		}
		return nil, fmt.Errorf("analysis: type-checking %s failed: %w", p.ImportPath, errors.Join(typeErrs...))
	}
	return &Package{
		Path:       p.ImportPath,
		Fset:       fset,
		Syntax:     syntax,
		TestSyntax: testSyntax,
		Types:      tpkg,
		Info:       info,
	}, nil
}
