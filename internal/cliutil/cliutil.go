// Package cliutil holds the flag and lifecycle plumbing shared by the
// repo's commands: a common -timeout flag and a root context that ends on
// SIGINT/SIGTERM, so every CLI cancels cleanly mid-collection instead of
// dying with work half-done.
package cliutil

import (
	"context"
	"flag"
	"os/signal"
	"syscall"
	"time"
)

// TimeoutFlag registers the conventional -timeout flag on fs (the default
// flag.CommandLine when fs is nil) and returns its destination. Zero means
// no deadline.
func TimeoutFlag(fs *flag.FlagSet) *time.Duration {
	if fs == nil {
		fs = flag.CommandLine
	}
	return fs.Duration("timeout", 0, "abort after this long (0 = no deadline)")
}

// Context returns the root context for a command: cancelled on SIGINT or
// SIGTERM, and additionally deadline-bounded when timeout is positive.
// The first signal only cancels the context; the signal handler is then
// released, so a second signal kills the process with the signal's
// default action while the command winds down. Callers must call stop to
// release the signal handler when no signal came.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() {
		cancel()
		stop()
	}
}
