package main

// The command-line contract make lint and CI rely on: the names -list
// prints, and the exit status — 0 clean, 1 findings, 2 a failed run.

import (
	"bytes"
	"strings"
	"testing"
)

func TestListNamesEveryCheck(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, &stderr)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "determinism ctx goleak errflow lint"; got != want {
		t.Errorf("-list names %q, want %q", got, want)
	}
}

func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"clean package", []string{"."}, 0},
		{"unknown flag -workers", []string{"-workers", "2", "."}, 2},
		{"unknown flag -disable", []string{"-disable", "errflow", "."}, 2},
		{"no package matches", []string{"../../internal/analysis/testdata/golden/..."}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.want {
				t.Errorf("mcdvfsvet %s exited %d, want %d\nstdout:\n%sstderr:\n%s",
					strings.Join(tc.args, " "), code, tc.want, &stdout, &stderr)
			}
		})
	}
}

// TestMalformedWaiversFail: no check's scope covers lintfix's import path,
// yet its malformed //lint:allow directives are findings under lint.
func TestMalformedWaiversFail(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"../../internal/analysis/testdata/src/lintfix"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exited %d, want 1\nstdout:\n%sstderr:\n%s", code, &stdout, &stderr)
	}
	out := stdout.String()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.Contains(line, ": [lint] ") {
			t.Errorf("finding not under lint: %s", line)
		}
	}
	for _, msg := range []string{"unknown check", "needs a reason", "missing a check name"} {
		if !strings.Contains(out, msg) {
			t.Errorf("no finding says %q:\n%s", msg, out)
		}
	}
}
