// Command benchjson records `go test -bench` output as a JSON record and
// diffs two records; stdlib only, matching the repo's no-dependency rule.
//
//	go test ./internal/analysis -run '^$' -bench 'BenchmarkVet' -benchmem \
//	    | go run ./cmd/benchjson -out BENCH_vet.json
//	go run ./cmd/benchjson -base base/BENCH_sim.json -head BENCH_sim.json \
//	    [-threshold 0.10] [-filter '^BenchmarkCollect']
//
// With -out it echoes the run on stdin to stdout (it stays visible in
// terminals and CI logs) and writes the parsed record. A result line
// "BenchmarkVet/serial-8  5  212345678 ns/op ..." becomes {"name", "pkg",
// "procs", "iterations", "ns_per_op", ...}: the package is that of the
// "pkg:" header above it, and the "-N" suffix is GOMAXPROCS. A "meta"
// block records the collecting environment (go version, GOOS / GOARCH,
// GOMAXPROCS, git commit, and whether the tree had uncommitted changes)
// for provenance only; the diff prints each side's commit and dirty flag.
//
// With -base and -head it is the CI gate for the collection hot path: it
// matches results by package, name and GOMAXPROCS (-filter selects by
// name; meta is ignored) and exits 1 on a regression beyond -threshold of
// ns/op or allocs/op, or on a benchmark in the base that is missing from
// the head — a silently vanished benchmark is a gate that stopped gating,
// so a rename must land its new name before retiring the old one. Results
// only in the head are reported informationally.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name string `json:"name"`
	// Pkg is the import path of the package the benchmark ran in.
	Pkg string `json:"pkg,omitempty"`
	// Procs is the GOMAXPROCS the benchmark ran at.
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Meta records the environment the run was collected in. It is carried
// for provenance only: the diff compares results and never reads this
// block, so records from different commits or toolchains diff cleanly.
type Meta struct {
	GoVersion  string `json:"go_version,omitempty"`
	Goos       string `json:"goos,omitempty"`
	Goarch     string `json:"goarch,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
	// Commit is the git HEAD at collection time, empty when git or the
	// repository is unavailable (e.g. a source tarball).
	Commit string `json:"commit,omitempty"`
	// Dirty marks a record collected from a tree whose tracked files
	// differed from Commit: it measured Commit plus uncommitted changes.
	Dirty bool `json:"dirty,omitempty"`
}

// collectMeta snapshots the collecting process's environment.
func collectMeta() Meta {
	m := Meta{
		GoVersion:  runtime.Version(),
		Goos:       runtime.GOOS,
		Goarch:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
		m.Dirty = dirtyTree(string(out))
	}
	return m
}

// dirtyTree reports whether `git status --porcelain --untracked-files=no`
// output (one "XY path" or "XY from -> to" line per changed tracked file,
// paths from the repository root) lists a file other than a bench record,
// BENCH_*.json at the root. Records are this tool's own output: writing
// one must not mark the next one recorded from the same tree.
func dirtyTree(porcelain string) bool {
	for _, line := range strings.Split(porcelain, "\n") {
		if len(line) < 4 {
			continue
		}
		for _, p := range strings.Split(line[3:], " -> ") {
			if record, _ := path.Match("BENCH_*.json", p); !record {
				return true
			}
		}
	}
	return false
}

// Record is the whole run: environment header plus every result.
type Record struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Meta    Meta     `json:"meta"`
	Results []Result `json:"results"`
}

func main() {
	out := flag.String("out", "", "record the benchmark run on stdin to this JSON file")
	basePath := flag.String("base", "", "baseline record to diff against -head")
	headPath := flag.String("head", "", "head record to diff against -base")
	threshold := flag.Float64("threshold", 0.10, "allowed fractional regression of ns/op or allocs/op")
	filterExpr := flag.String("filter", "", "regexp restricting which benchmark names are diffed")
	flag.Parse()
	switch {
	case *out != "" && *basePath == "" && *headPath == "":
		if err := record(*out); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	case *out == "" && *basePath != "" && *headPath != "":
		failures, err := diff(os.Stdout, *basePath, *headPath, *threshold, *filterExpr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		if failures > 0 {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchjson: give -out to record stdin, or -base and -head to diff two records")
		os.Exit(2)
	}
}

// record parses the benchmark run on stdin, echoing it to stdout, and
// writes it with its meta block to path.
func record(path string) error {
	rec, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		return fmt.Errorf("read stdin: %w", err)
	}
	if len(rec.Results) == 0 {
		return errors.New("no benchmark results on stdin")
	}
	rec.Meta = collectMeta()
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d result(s) to %s\n", len(rec.Results), path)
	return nil
}

// parse reads `go test -bench` output from r, echoing every line to echo,
// and returns the parsed record without Meta.
func parse(r io.Reader, echo io.Writer) (Record, error) {
	var rec Record
	var pkg string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			rec.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rec.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rec.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := parseResult(line); ok {
				res.Pkg = pkg
				rec.Results = append(rec.Results, res)
			}
		}
	}
	return rec, sc.Err()
}

// parseResult decodes one benchmark result line. The name's trailing
// "-N" is the GOMAXPROCS suffix the testing package appends; it omits the
// suffix only when GOMAXPROCS is 1.
func parseResult(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Result{}, false
	}
	r := Result{Name: fields[0], Procs: 1}
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Procs = p
			r.Name = r.Name[:i]
		}
	}
	iter, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iter
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Result{}, false
	}
	r.NsPerOp = ns
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, true
}
