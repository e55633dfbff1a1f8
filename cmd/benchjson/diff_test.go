package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func rec(results ...Result) Record { return Record{Results: results} }

func TestCompareFlagsRegressions(t *testing.T) {
	base := rec(
		Result{Name: "BenchmarkCollect/fine/serial", NsPerOp: 100e6, AllocsPerOp: 100},
		Result{Name: "BenchmarkCollect/fine/workers=4", NsPerOp: 30e6, AllocsPerOp: 120},
		Result{Name: "BenchmarkRemoved", NsPerOp: 5},
	)
	head := rec(
		Result{Name: "BenchmarkCollect/fine/serial", NsPerOp: 125e6, AllocsPerOp: 100},   // +25% ns: regression
		Result{Name: "BenchmarkCollect/fine/workers=4", NsPerOp: 31e6, AllocsPerOp: 125}, // within 10%
		Result{Name: "BenchmarkNew", NsPerOp: 7},
	)
	deltas, onlyBase, onlyHead := compare(base, head, 0.10, nil)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %d, want 2", len(deltas))
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if !byName["BenchmarkCollect/fine/serial"].Regressed {
		t.Error("25% ns/op regression not flagged")
	}
	if byName["BenchmarkCollect/fine/workers=4"].Regressed {
		t.Error("within-threshold change flagged")
	}
	if len(onlyBase) != 1 || onlyBase[0] != "BenchmarkRemoved" {
		t.Errorf("onlyBase = %v", onlyBase)
	}
	if len(onlyHead) != 1 || onlyHead[0] != "BenchmarkNew" {
		t.Errorf("onlyHead = %v", onlyHead)
	}
}

func TestCompareIgnoresMeta(t *testing.T) {
	// Records that differ only in collection provenance — toolchain,
	// commit, GOMAXPROCS — must diff as identical: the gate compares
	// measurements, not environments.
	results := []Result{
		{Name: "BenchmarkCollect/fine/serial", NsPerOp: 100e6, AllocsPerOp: 100},
		{Name: "BenchmarkCollect/fine/workers=4", NsPerOp: 30e6, AllocsPerOp: 120},
	}
	base := rec(results...)
	base.Meta = Meta{GoVersion: "go1.22.1", Goos: "linux", Goarch: "amd64", GoMaxProcs: 8, Commit: "aaaa", Dirty: true}
	head := rec(results...)
	head.Meta = Meta{GoVersion: "go1.23.0", Goos: "darwin", Goarch: "arm64", GoMaxProcs: 4, Commit: "bbbb"}
	deltas, onlyBase, onlyHead := compare(base, head, 0.10, nil)
	if len(onlyBase) != 0 || len(onlyHead) != 0 {
		t.Fatalf("meta-only difference produced asymmetry: onlyBase=%v onlyHead=%v", onlyBase, onlyHead)
	}
	var sb strings.Builder
	if got := report(&sb, deltas, onlyBase, onlyHead, 0.10); got != 0 {
		t.Fatalf("meta-only difference produced %d failure(s):\n%s", got, sb.String())
	}
	for _, d := range deltas {
		if d.Regressed || d.NsRatio != 1 || d.AllocRatio != 1 {
			t.Errorf("meta-only difference moved %s: %+v", d.Name, d)
		}
	}
}

func TestCompareFlagsAllocRegressions(t *testing.T) {
	base := rec(Result{Name: "B", NsPerOp: 100, AllocsPerOp: 10})
	head := rec(Result{Name: "B", NsPerOp: 100, AllocsPerOp: 12})
	deltas, _, _ := compare(base, head, 0.10, nil)
	if !deltas[0].Regressed {
		t.Error("20% allocs/op regression not flagged")
	}
}

func TestCompareZeroAllocBase(t *testing.T) {
	// A zero-alloc benchmark staying zero-alloc must not divide by zero or
	// flag; growing allocations from zero must flag.
	base := rec(Result{Name: "B", NsPerOp: 100, AllocsPerOp: 0})
	stay := rec(Result{Name: "B", NsPerOp: 100, AllocsPerOp: 0})
	grow := rec(Result{Name: "B", NsPerOp: 100, AllocsPerOp: 40})
	if d, _, _ := compare(base, stay, 0.10, nil); d[0].Regressed {
		t.Error("zero->zero allocs flagged")
	}
	if d, _, _ := compare(base, grow, 0.10, nil); !d[0].Regressed {
		t.Error("zero->40 allocs not flagged")
	}
}

func TestCompareFilter(t *testing.T) {
	base := rec(
		Result{Name: "BenchmarkCollect/x", NsPerOp: 100},
		Result{Name: "BenchmarkOther", NsPerOp: 100},
	)
	head := rec(
		Result{Name: "BenchmarkCollect/x", NsPerOp: 500},
		Result{Name: "BenchmarkOther", NsPerOp: 500},
	)
	deltas, _, _ := compare(base, head, 0.10, regexp.MustCompile(`^BenchmarkCollect/`))
	if len(deltas) != 1 || deltas[0].Name != "BenchmarkCollect/x" {
		t.Fatalf("filter leaked: %+v", deltas)
	}
}

func TestReportFailsOnMissingFromHead(t *testing.T) {
	// A benchmark the base measured but the head record dropped must fail
	// the diff with a message naming it: a silently vanished benchmark is a
	// gate that stopped gating.
	base := rec(
		Result{Name: "BenchmarkCollect/fine/serial", NsPerOp: 100e6, AllocsPerOp: 100},
		Result{Name: "BenchmarkCollect/fine/workers=4", NsPerOp: 30e6, AllocsPerOp: 120},
	)
	head := rec(Result{Name: "BenchmarkCollect/fine/serial", NsPerOp: 101e6, AllocsPerOp: 100})
	deltas, ob, oh := compare(base, head, 0.10, nil)
	var sb strings.Builder
	if got := report(&sb, deltas, ob, oh, 0.10); got != 1 {
		t.Fatalf("report returned %d failures, want 1 for the missing benchmark", got)
	}
	out := sb.String()
	if !strings.Contains(out, "BenchmarkCollect/fine/workers=4") || !strings.Contains(out, "missing from head") {
		t.Errorf("missing benchmark not named in failure output: %q", out)
	}
	// Filtered-out names must not fail: scoping the gate is deliberate.
	deltas, ob, oh = compare(base, head, 0.10, regexp.MustCompile(`serial$`))
	sb.Reset()
	if got := report(&sb, deltas, ob, oh, 0.10); got != 0 {
		t.Fatalf("filtered-out missing benchmark still failed: %d\n%s", got, sb.String())
	}
}

func TestReportCountsAndRenders(t *testing.T) {
	base := rec(Result{Name: "B", NsPerOp: 100, AllocsPerOp: 10})
	head := rec(Result{Name: "B", NsPerOp: 150, AllocsPerOp: 10})
	deltas, ob, oh := compare(base, head, 0.10, nil)
	var sb strings.Builder
	if got := report(&sb, deltas, ob, oh, 0.10); got != 1 {
		t.Fatalf("report counted %d regressions, want 1", got)
	}
	if !strings.Contains(sb.String(), "+50.0%") {
		t.Errorf("report missing delta percentage: %q", sb.String())
	}
	// An empty intersection (e.g. the base branch predates the benchmarks)
	// must report zero regressions so CI passes gracefully.
	deltas, ob, oh = compare(rec(), head, 0.10, nil)
	sb.Reset()
	if got := report(&sb, deltas, ob, oh, 0.10); got != 0 {
		t.Fatalf("empty base produced %d regressions", got)
	}
	if !strings.Contains(sb.String(), "only in head") {
		t.Errorf("new benchmark not reported: %q", sb.String())
	}
}

func TestDiffPrintsProvenance(t *testing.T) {
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "base.json"), filepath.Join(dir, "head.json")}
	for i, meta := range []Meta{{Commit: "aaaa", Dirty: true}, {}} {
		r := rec(Result{Name: "B", NsPerOp: 100})
		r.Meta = meta
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[i], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if _, err := diff(&sb, paths[0], paths[1], 0.10, ""); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"base " + paths[0] + ": commit aaaa, dirty true", "head " + paths[1] + ": commit unknown, dirty false"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("diff output lacks %q:\n%s", want, sb.String())
		}
	}
}
