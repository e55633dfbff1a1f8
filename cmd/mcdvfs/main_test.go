package main

import (
	"context"
	"errors"
	"testing"
)

// TestRunStopsOnCancelledContext: a run whose context has ended, as after
// SIGINT, returns the context's error instead of collecting.
func TestRunStopsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"run", "fig12"}); !errors.Is(err, context.Canceled) {
		t.Errorf("run fig12 under a cancelled context: err %v, want context.Canceled", err)
	}
}
