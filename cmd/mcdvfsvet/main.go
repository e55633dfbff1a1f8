// Command mcdvfsvet runs the repository's domain-invariant analyzer suite
// (internal/analysis), eight checks that go vet, the race detector and the
// tests do not cover: determinism (including purity summaries that trace
// entropy through helper calls), interprocedural unit safety, context
// discipline, goroutine joins (goleak), error flow, rangecheck (interval
// analysis: zero-capable divisors, negative physical quantities at call
// boundaries, provably out-of-range table indices), hotpath (functions
// marked //vet:hotpath, and all they statically call, are proven
// allocation-free — interface boxing, escaping composite literals,
// unproven appends, map/chan/string traffic, closures, defers in loops),
// and contract, which proves //vet:requires / //vet:ensures /
// //vet:invariant annotations with the interval interpreter — ensures on
// every return path, requires at every static call site, invariants across
// mutating methods. It is the `make lint` tier of `make verify`, after
// go vet.
//
// Usage:
//
//	mcdvfsvet [flags] [patterns ...]
//
// Patterns default to ./... and follow the go tool's directory forms.
// -waivers inventories every //lint:allow directive in scope (file:line,
// check, reason) and marks the stale ones — waivers whose check no longer
// fires on the waived line. -contracts inventories every well-formed
// //vet:requires / ensures / invariant annotation in scope (file:line, kind,
// target, expression), machine-readable with -json.
// Exit status: 0 clean, 1 violations found (or stale waivers under
// -waivers), 2 the run itself failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mcdvfs/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("mcdvfsvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	disable := fs.String("disable", "", "comma-separated check names to skip (see -list)")
	list := fs.Bool("list", false, "list available checks and exit")
	waivers := fs.Bool("waivers", false, "list every //lint:allow waiver in scope and flag stale ones")
	contracts := fs.Bool("contracts", false, "list every //vet: contract annotation in scope")
	workers := fs.Int("workers", 0, "package load/check worker-pool size (0 = all cores)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mcdvfsvet [flags] [patterns ...]\n\nThe mcdvfs domain-invariant analyzer suite. Patterns default to ./...\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.Suite() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-12s %s\n", analysis.LintCheckName, "reject malformed or unknown //lint:allow directives")
		return 0
	}

	disabled := make(map[string]bool)
	for _, name := range strings.Split(*disable, ",") {
		if name = strings.TrimSpace(name); name != "" {
			disabled[name] = true
		}
	}
	known := map[string]bool{analysis.LintCheckName: true}
	for _, a := range analysis.Suite() {
		known[a.Name] = true
	}
	for name := range disabled {
		if !known[name] {
			fmt.Fprintf(stderr, "mcdvfsvet: unknown check %q in -disable (try -list)\n", name)
			return 2
		}
	}

	if *waivers {
		return runWaivers(fs.Args(), *jsonOut, *workers, stdout, stderr)
	}
	if *contracts {
		return runContracts(fs.Args(), *jsonOut, *workers, stdout, stderr)
	}

	diags, err := analysis.Run(analysis.Options{
		Patterns: fs.Args(),
		Disable:  disabled,
		Workers:  *workers,
	})
	if err != nil {
		fmt.Fprintf(stderr, "mcdvfsvet: %v\n", err)
		return 2
	}
	if cwd, err := os.Getwd(); err == nil {
		analysis.RelTo(diags, cwd)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "mcdvfsvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "mcdvfsvet: %d violation(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// runWaivers implements -waivers: the full inventory of //lint:allow
// directives in scope, stale ones marked. A stale waiver exits 1 — it is a
// suppression with nothing left to suppress, which either hides a future
// regression or documents a fix that deserves deleting its waiver.
func runWaivers(patterns []string, jsonOut bool, workers int, stdout, stderr *os.File) int {
	ws, err := analysis.ListWaivers(analysis.Options{Patterns: patterns, Workers: workers})
	if err != nil {
		fmt.Fprintf(stderr, "mcdvfsvet: %v\n", err)
		return 2
	}
	if cwd, err := os.Getwd(); err == nil {
		analysis.RelWaiversTo(ws, cwd)
	}
	stale := 0
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if ws == nil {
			ws = []analysis.Waiver{}
		}
		if err := enc.Encode(ws); err != nil {
			fmt.Fprintf(stderr, "mcdvfsvet: %v\n", err)
			return 2
		}
		for _, w := range ws {
			if w.Stale {
				stale++
			}
		}
	} else {
		for _, w := range ws {
			mark := ""
			if w.Stale {
				mark = " STALE"
				stale++
			}
			fmt.Fprintf(stdout, "%s:%d: [%s]%s %s\n", w.File, w.Line, w.Check, mark, w.Reason)
		}
		fmt.Fprintf(stderr, "mcdvfsvet: %d waiver(s), %d stale\n", len(ws), stale)
	}
	if stale > 0 {
		return 1
	}
	return 0
}

// runContracts implements -contracts: the machine-readable inventory of
// every well-formed //vet: contract annotation in scope. Malformed
// annotations are ordinary diagnostics of a normal run, so the inventory
// itself never fails — it exits 0 unless the load itself breaks.
func runContracts(patterns []string, jsonOut bool, workers int, stdout, stderr *os.File) int {
	cs, err := analysis.ListContracts(analysis.Options{Patterns: patterns, Workers: workers})
	if err != nil {
		fmt.Fprintf(stderr, "mcdvfsvet: %v\n", err)
		return 2
	}
	if cwd, err := os.Getwd(); err == nil {
		analysis.RelContractsTo(cs, cwd)
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if cs == nil {
			cs = []analysis.Contract{}
		}
		if err := enc.Encode(cs); err != nil {
			fmt.Fprintf(stderr, "mcdvfsvet: %v\n", err)
			return 2
		}
	} else {
		for _, c := range cs {
			fmt.Fprintf(stdout, "%s:%d: [%s] %s: %s\n", c.File, c.Line, c.Kind, c.Target, c.Expr)
		}
		fmt.Fprintf(stderr, "mcdvfsvet: %d contract annotation(s)\n", len(cs))
	}
	return 0
}
