package main

// Diff mode: match two records result by result and flag regressions.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Delta is one compared benchmark.
type Delta struct {
	// Name is the result's id: package, name and GOMAXPROCS.
	Name       string
	Base, Head Result
	// NsRatio and AllocRatio are head/base; 1 means unchanged. AllocRatio
	// is 1 when the base measured zero allocations and the head does too.
	NsRatio    float64
	AllocRatio float64
	// Regressed marks a ratio above the threshold.
	Regressed bool
}

// id names a result across records: package, name and GOMAXPROCS, so
// the same name from another package or -cpu value is its own entry.
// Procs 0 (records from before procs was stored) and 1 print no suffix,
// as go test does.
func (r Result) id() string {
	s := r.Name
	if r.Procs > 1 {
		s += "-" + strconv.Itoa(r.Procs)
	}
	if r.Pkg != "" {
		s = r.Pkg + "." + s
	}
	return s
}

// index keys results by id; a repeated id keeps the last measurement,
// matching `go test -count` output order.
func index(rec Record) map[string]Result {
	m := make(map[string]Result, len(rec.Results))
	for _, r := range rec.Results {
		m[r.id()] = r
	}
	return m
}

// ratio returns head/base, treating a zero base as "no regression
// detectable" (ratio 1) unless the head is non-zero, which reads as an
// introduction and compares against the smallest measurable base.
func ratio(base, head float64) float64 {
	if base <= 0 {
		if head <= 0 {
			return 1
		}
		return head // vs an implicit base of 1 unit
	}
	return head / base
}

// compare matches the two records and flags regressions beyond threshold.
// Only results whose name matches filter (nil = all) participate.
func compare(base, head Record, threshold float64, filter *regexp.Regexp) (deltas []Delta, onlyBase, onlyHead []string) {
	b, h := index(base), index(head)
	for id, hr := range h {
		if filter != nil && !filter.MatchString(hr.Name) {
			continue
		}
		br, ok := b[id]
		if !ok {
			onlyHead = append(onlyHead, id)
			continue
		}
		d := Delta{
			Name:       id,
			Base:       br,
			Head:       hr,
			NsRatio:    ratio(br.NsPerOp, hr.NsPerOp),
			AllocRatio: ratio(float64(br.AllocsPerOp), float64(hr.AllocsPerOp)),
		}
		d.Regressed = d.NsRatio > 1+threshold || d.AllocRatio > 1+threshold
		deltas = append(deltas, d)
	}
	for id, br := range b {
		if filter != nil && !filter.MatchString(br.Name) {
			continue
		}
		if _, ok := h[id]; !ok {
			onlyBase = append(onlyBase, id)
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	sort.Strings(onlyBase)
	sort.Strings(onlyHead)
	return deltas, onlyBase, onlyHead
}

// report renders the comparison and returns the number of failures:
// regressions beyond threshold plus benchmarks the head record dropped.
func report(w io.Writer, deltas []Delta, onlyBase, onlyHead []string, threshold float64) int {
	regressions := 0
	for _, d := range deltas {
		mark := "  "
		if d.Regressed {
			mark = "✗ "
			regressions++
		}
		fmt.Fprintf(w, "%s%-60s ns/op %12.0f -> %12.0f (%+.1f%%)  allocs/op %6d -> %6d (%+.1f%%)\n",
			mark, d.Name,
			d.Base.NsPerOp, d.Head.NsPerOp, 100*(d.NsRatio-1),
			d.Base.AllocsPerOp, d.Head.AllocsPerOp, 100*(d.AllocRatio-1))
	}
	for _, id := range onlyHead {
		fmt.Fprintf(w, "+ %-60s only in head (no base to compare)\n", id)
	}
	for _, id := range onlyBase {
		fmt.Fprintf(w, "✗ %-60s in base but missing from head: the gate no longer measures it (restore the benchmark, or land the rename on the base branch first)\n", id)
	}
	fmt.Fprintf(w, "benchjson: %d compared, %d regressed beyond %.0f%%, %d missing from head, %d only in head\n",
		len(deltas), regressions, 100*threshold, len(onlyBase), len(onlyHead))
	return regressions + len(onlyBase)
}

// diff loads and compares the two records, renders each one's
// provenance and the report to w, and returns the report's failure count.
func diff(w io.Writer, basePath, headPath string, threshold float64, filterExpr string) (int, error) {
	var filter *regexp.Regexp
	if filterExpr != "" {
		var err error
		if filter, err = regexp.Compile(filterExpr); err != nil {
			return 0, fmt.Errorf("bad -filter: %w", err)
		}
	}
	var recs [2]Record
	for i, path := range []string{basePath, headPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		if err := json.Unmarshal(data, &recs[i]); err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		commit := recs[i].Meta.Commit
		if commit == "" {
			commit = "unknown"
		}
		fmt.Fprintf(w, "%s %s: commit %s, dirty %t\n", [2]string{"base", "head"}[i], path, commit, recs[i].Meta.Dirty)
	}
	deltas, onlyBase, onlyHead := compare(recs[0], recs[1], threshold, filter)
	return report(w, deltas, onlyBase, onlyHead, threshold), nil
}
