// Command mcdvfsvet runs the repository's domain-invariant analyzer suite
// (internal/analysis), four checks that go vet, the race detector and the
// tests do not cover: determinism (including purity summaries that trace
// entropy through helper calls), context discipline, goroutine joins
// (goleak) and error flow. It is the `make lint` tier of `make verify`,
// after go vet.
//
// Usage:
//
//	mcdvfsvet [flags] [patterns ...]
//
// Patterns default to ./... and are go package patterns: mcdvfsvet loads
// them with `go list -deps -export`, so the go on PATH must be the
// toolchain mcdvfsvet was built with (as under `go run`).
// -waivers inventories every //lint:allow directive in scope (file:line,
// check, reason) and marks the stale ones — waivers whose check no longer
// fires on the waived line.
// Exit status: 0 clean, 1 violations found (or stale waivers under
// -waivers), 2 the run itself failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mcdvfs/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcdvfsvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	list := fs.Bool("list", false, "list available checks and exit")
	waivers := fs.Bool("waivers", false, "list every //lint:allow waiver in scope and flag stale ones")
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

	opts := analysis.Options{Patterns: fs.Args()}
	if *waivers {
		return runWaivers(opts, *jsonOut, stdout, stderr)
	}

	diags, err := analysis.Run(opts)
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
func runWaivers(opts analysis.Options, jsonOut bool, stdout, stderr io.Writer) int {
	ws, err := analysis.ListWaivers(opts)
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
