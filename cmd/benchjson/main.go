// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON record. It reads the benchmark run from stdin,
// echoes it unchanged to stdout (the run stays visible in terminals and CI
// logs), and writes the parsed result set to -out.
//
//	go test ./internal/analysis -run '^$' -bench 'BenchmarkVet' -benchmem \
//	    | go run ./cmd/benchjson -out BENCH_vet.json
//
// Each result line
//
//	BenchmarkVet/serial-8   5   212345678 ns/op   123456 B/op   1234 allocs/op
//
// becomes {"name", "pkg", "procs", "iterations", "ns_per_op", ...}. A run
// over several packages prints one "pkg:" header per package, so each
// result carries the package of the header above it. The goos / goarch /
// cpu header lines are captured as run metadata, and a "meta" block records
// the collecting environment (go version, GOOS / GOARCH, GOMAXPROCS, git
// commit) for provenance — benchdiff ignores it when diffing, so records
// from different toolchains stay comparable.
// Stdlib only, matching the repo's no-dependency rule.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
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
// for provenance only: benchdiff compares results by name and never reads
// this block, so records from different commits or toolchains diff
// cleanly.
type Meta struct {
	GoVersion  string `json:"go_version,omitempty"`
	Goos       string `json:"goos,omitempty"`
	Goarch     string `json:"goarch,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
	// Commit is the git HEAD at collection time, empty when git or the
	// repository is unavailable (e.g. a source tarball).
	Commit string `json:"commit,omitempty"`
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
	return m
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
	out := flag.String("out", "", "path for the JSON record (required)")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -out is required")
		os.Exit(2)
	}

	rec, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read stdin: %v\n", err)
		os.Exit(1)
	}
	rec.Meta = collectMeta()
	if len(rec.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d result(s) to %s\n", len(rec.Results), *out)
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
