package main

import (
	"io"
	"regexp"
	"strings"
	"testing"
)

// A two-package run, as `make bench-serve` produces it: the second "pkg:"
// header must not relabel the first package's results, and a name without
// a -N suffix was measured at GOMAXPROCS=1.
const twoPackageRun = `goos: linux
goarch: amd64
pkg: mcdvfs/internal/serve
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkServeOptimalCached-2   	    5000	    231000 ns/op	   4096 B/op	      40 allocs/op
BenchmarkServeGridCached   	       5	   6300000 ns/op	5400000 B/op	     184 allocs/op
PASS
ok  	mcdvfs/internal/serve	3.210s
goos: linux
goarch: amd64
pkg: mcdvfs/internal/cluster
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkClusterGrid/nodes=3-2   	       5	   4600000 ns/op
PASS
ok  	mcdvfs/internal/cluster	5.100s
`

func TestParseTwoPackages(t *testing.T) {
	rec, err := parse(strings.NewReader(twoPackageRun), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "BenchmarkServeOptimalCached", Pkg: "mcdvfs/internal/serve", Procs: 2, Iterations: 5000, NsPerOp: 231000, BytesPerOp: 4096, AllocsPerOp: 40},
		{Name: "BenchmarkServeGridCached", Pkg: "mcdvfs/internal/serve", Procs: 1, Iterations: 5, NsPerOp: 6300000, BytesPerOp: 5400000, AllocsPerOp: 184},
		{Name: "BenchmarkClusterGrid/nodes=3", Pkg: "mcdvfs/internal/cluster", Procs: 2, Iterations: 5, NsPerOp: 4600000},
	}
	if len(rec.Results) != len(want) {
		t.Fatalf("got %d results, want %d: %+v", len(rec.Results), len(want), rec.Results)
	}
	for i, w := range want {
		if rec.Results[i] != w {
			t.Errorf("result %d = %+v, want %+v", i, rec.Results[i], w)
		}
	}
	if rec.Goos != "linux" || rec.Goarch != "amd64" || rec.CPU == "" {
		t.Errorf("header = %q/%q/%q, want linux/amd64 and a cpu", rec.Goos, rec.Goarch, rec.CPU)
	}
}

func TestParseEchoesInput(t *testing.T) {
	var echo strings.Builder
	if _, err := parse(strings.NewReader(twoPackageRun), &echo); err != nil {
		t.Fatal(err)
	}
	if echo.String() != twoPackageRun {
		t.Errorf("echo differs from input:\n%s", echo.String())
	}
}

// TestCompareKeysByPackageAndProcs: a `-cpu 1,2` run records one name at
// two GOMAXPROCS values, and two packages may share a name. Each is its own
// entry, so a 2x regression at one procs value or in one package cannot
// hide behind the other measurement.
func TestCompareKeysByPackageAndProcs(t *testing.T) {
	base := Record{Results: []Result{
		{Name: "BenchmarkCollect/fine", Pkg: "mcdvfs", Procs: 1, NsPerOp: 100},
		{Name: "BenchmarkCollect/fine", Pkg: "mcdvfs", Procs: 2, NsPerOp: 60},
		{Name: "BenchmarkGrid", Pkg: "mcdvfs/internal/serve", Procs: 2, NsPerOp: 100},
		{Name: "BenchmarkGrid", Pkg: "mcdvfs/internal/cluster", Procs: 2, NsPerOp: 100},
	}}
	head := Record{Results: []Result{
		{Name: "BenchmarkCollect/fine", Pkg: "mcdvfs", Procs: 1, NsPerOp: 200},
		{Name: "BenchmarkCollect/fine", Pkg: "mcdvfs", Procs: 2, NsPerOp: 60},
		{Name: "BenchmarkGrid", Pkg: "mcdvfs/internal/serve", Procs: 2, NsPerOp: 200},
		{Name: "BenchmarkGrid", Pkg: "mcdvfs/internal/cluster", Procs: 2, NsPerOp: 100},
	}}
	deltas, onlyBase, onlyHead := compare(base, head, 0.10, regexp.MustCompile(`^Benchmark(Collect|Grid)`))
	if len(deltas) != 4 || len(onlyBase) != 0 || len(onlyHead) != 0 {
		t.Fatalf("got %d deltas, onlyBase %v, onlyHead %v; want 4 matched results", len(deltas), onlyBase, onlyHead)
	}
	var regressed []string
	for _, d := range deltas {
		if d.Regressed {
			regressed = append(regressed, d.Name)
		}
	}
	want := []string{"mcdvfs.BenchmarkCollect/fine", "mcdvfs/internal/serve.BenchmarkGrid-2"}
	if strings.Join(regressed, " ") != strings.Join(want, " ") {
		t.Errorf("regressed = %v, want %v", regressed, want)
	}
	if got := report(io.Discard, deltas, onlyBase, onlyHead, 0.10); got != 2 {
		t.Errorf("report counted %d failures, want 2", got)
	}
}

func TestDirtyTree(t *testing.T) {
	for _, c := range []struct {
		name, porcelain string
		want            bool
	}{
		{"clean", "", false},
		{"modified source", " M internal/trace/encode.go\n", true},
		{"staged source", "M  Makefile\n", true},
		{"only records", " M BENCH_sim.json\n M BENCH_serve.json\n", false},
		{"new record", "A  BENCH_new.json\n", false},
		{"record and source", " M BENCH_serve.json\nM  internal/serve/handlers.go\n", true},
		{"record outside the root", " M docs/BENCH_old.json\n", true},
		{"renamed source", "R  old.go -> new.go\n", true},
		{"source renamed to a record name", "R  main.go -> BENCH_x.json\n", true},
		{"no trailing newline", " D README.md", true},
	} {
		if got := dirtyTree(c.porcelain); got != c.want {
			t.Errorf("%s: dirtyTree(%q) = %v, want %v", c.name, c.porcelain, got, c.want)
		}
	}
}
