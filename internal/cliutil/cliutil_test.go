package cliutil

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"
)

// childEnv marks the re-run of this test binary that plays the command.
const childEnv = "CLIUTIL_SIGNAL_CHILD"

// TestSecondSignalKills re-runs the test binary as one child that roots
// itself in Context and winds down slowly once cancelled, as mcdvfsd does
// while it drains. The child's first SIGINT must only cancel its context;
// a second must kill it by the signal, not be swallowed. The cancellation
// releases the handler from a goroutine of its own, so a second signal
// sent in the instant before that goroutine runs can still be swallowed:
// the test sends SIGINT again every 50ms until the child dies, and fails
// when none of them kills it within 10s.
func TestSecondSignalKills(t *testing.T) {
	if os.Getenv(childEnv) == "1" {
		ctx, stop := Context(0)
		defer stop()
		fmt.Println("ready")
		<-ctx.Done()
		fmt.Println("cancelled")
		time.Sleep(time.Minute) // winding down; only a signal ends this early
		os.Exit(0)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestSecondSignalKills$")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	lines := bufio.NewScanner(out)
	await := func(want string) {
		t.Helper()
		if !lines.Scan() || lines.Text() != want {
			_ = cmd.Process.Kill()
			t.Fatalf("child printed %q (%v), want %q", lines.Text(), lines.Err(), want)
		}
	}

	await("ready")
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	await("cancelled")
	go func() { exited <- cmd.Wait() }()
	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for sent := 1; ; sent++ {
		if err := cmd.Process.Signal(os.Interrupt); err != nil && !errors.Is(err, os.ErrProcessDone) {
			t.Fatal(err)
		}
		select {
		case err := <-exited:
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("child exited with %v after a second SIGINT, want death by the signal", err)
			}
			if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGINT {
				t.Errorf("child ended with %v, want death by SIGINT", exit)
			}
			if sent > 1 {
				t.Logf("the child died at SIGINT %d after the first", sent)
			}
			return
		case <-tick.C:
		case <-deadline:
			_ = cmd.Process.Kill()
			<-exited
			t.Fatalf("%d SIGINTs after the first swallowed: the child outlived them by 10s", sent)
		}
	}
}
