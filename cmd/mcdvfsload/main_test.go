package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mcdvfs/internal/serve"
)

// TestRemovedFlagsRejected: the target is -targets alone, targets are
// always taken in rotation, and the 429 backoff cap is fixed, so -url,
// -policy and -retry-after-max are unknown flags, refused before any
// request is sent with flag.ExitOnError's status 2.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-url", "http://127.0.0.1:8080"},
		{"-policy", "random"},
		{"-retry-after-max", "1s"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("mcdvfsload %s exited %d, want 2", strings.Join(args, " "), code)
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(stderr.String(), want) {
			t.Errorf("mcdvfsload %s: stderr %q does not say %q", strings.Join(args, " "), &stderr, want)
		}
	}
}

// TestDefaultTarget: with no -targets, the run drives the local daemon.
func TestDefaultTarget(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	const def = "http://127.0.0.1:8080"
	if !strings.Contains(stderr.String(), `(default "`+def+`")`) {
		t.Errorf("-h does not name %s as the -targets default:\n%s", def, &stderr)
	}
	if got := parseTargets(def); !reflect.DeepEqual(got, []string{def}) {
		t.Errorf("parseTargets(%q) = %q, want the one target", def, got)
	}
}

func TestParseTargets(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"http://a:8080/", []string{"http://a:8080"}},
		{"http://a:8080//, http://b:8081", []string{"http://a:8080", "http://b:8081"}},
		{"http://a:8080,,http://b:8081,", []string{"http://a:8080", "http://b:8081"}},
		{" , ,", nil},
		{"", nil},
	} {
		if got := parseTargets(tc.spec); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseTargets(%q) = %q, want %q", tc.spec, got, tc.want)
		}
	}
}

func TestParseMix(t *testing.T) {
	m, err := parseMix("grid=1, optimal=3,benchmarks=0")
	if err != nil {
		t.Fatal(err)
	}
	if want := (serve.LoadMix{Grid: 1, Optimal: 3}); m != want {
		t.Errorf("parseMix = %+v, want %+v", m, want)
	}
	if m, err := parseMix(""); err != nil || m != (serve.LoadMix{}) {
		t.Errorf("empty mix = %+v, %v; want the zero mix, which RunLoad reads as the default", m, err)
	}
	for _, tc := range []struct{ spec, msg string }{
		{"grid=1,graph=2", "unknown mix endpoint"},
		{"grid=-1,optimal=2", "bad mix weight"},
		{"grid=x", "bad mix weight"},
		{"grid", "want name=weight"},
		{"grid=0,optimal=0", "zero total weight"},
	} {
		_, err := parseMix(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("parseMix(%q) error %v, want one saying %q", tc.spec, err, tc.msg)
		}
	}
}

// TestMalformedMixFails: a mix that does not parse ends the run with
// status 1 before any request is sent.
func TestMalformedMixFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mix", "grid=0"}, &stdout, &stderr); code != 1 {
		t.Errorf("-mix grid=0 exited %d, want 1 (stderr %q)", code, &stderr)
	}
}
