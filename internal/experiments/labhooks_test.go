package experiments

// Tests for the exported Lab cache hooks the serve layer builds on: the
// grid observer (hit/collect accounting), the collect admission gate,
// eviction via Forget, and the per-column progress hook.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"mcdvfs/internal/freq"
)

// eventTally counts observer events by kind, concurrency-safe.
type eventTally struct {
	hits, collects atomic.Int64
}

func (e *eventTally) observe(ev GridEvent) {
	switch ev.Kind {
	case GridHit:
		e.hits.Add(1)
	case GridCollect:
		e.collects.Add(1)
	}
}

func TestGridObserverCountsOutcomes(t *testing.T) {
	var tally eventTally
	l, err := NewLab(WithGridObserver(tally.observe))
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 16
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := l.GridFor(context.Background(), l.key("gobmk", "coarse")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if n := tally.collects.Load(); n != 1 {
		t.Errorf("collect events = %d, want 1", n)
	}
	if n := tally.hits.Load(); n != waiters-1 {
		t.Errorf("hit events = %d, want %d", n, waiters-1)
	}

	// A later request over the completed entry is also a hit.
	if _, err := l.GridFor(context.Background(), l.key("gobmk", "coarse")); err != nil {
		t.Fatal(err)
	}
	if n := tally.hits.Load(); n != waiters {
		t.Errorf("hit events after warm request = %d, want %d", n, waiters)
	}
}

func TestCollectGateSaturationFailsFlight(t *testing.T) {
	sentinel := errors.New("saturated")
	gate := func(ctx context.Context) (func(), error) { return nil, sentinel }
	l, err := NewLab(WithCollectGate(gate))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.GridFor(context.Background(), l.key("gobmk", "coarse")); !errors.Is(err, sentinel) {
		t.Fatalf("GridFor err = %v, want the gate sentinel", err)
	}
	// A failed flight must not be cached: once the gate admits, the grid
	// collects cleanly.
	var admitted atomic.Int64
	l.gate = func(ctx context.Context) (func(), error) {
		admitted.Add(1)
		return func() {}, nil
	}
	if _, err := l.GridFor(context.Background(), l.key("gobmk", "coarse")); err != nil {
		t.Fatalf("GridFor after gate opened: %v", err)
	}
	if n := admitted.Load(); n != 1 {
		t.Errorf("gate admissions = %d, want 1", n)
	}
	// Warm entry: no further admission needed.
	if _, err := l.GridFor(context.Background(), l.key("gobmk", "coarse")); err != nil {
		t.Fatal(err)
	}
	if n := admitted.Load(); n != 1 {
		t.Errorf("gate admissions after warm hit = %d, want still 1", n)
	}
}

func TestForgetForcesRecollection(t *testing.T) {
	l, counts := countingLab(t, 0)
	if _, err := l.GridFor(context.Background(), l.key("gobmk", "coarse")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AnalysisFor(context.Background(), l.key("gobmk", "coarse")); err != nil {
		t.Fatal(err)
	}
	if !l.Forget("gobmk") {
		t.Fatal("Forget reported nothing cached")
	}
	if l.Forget("gobmk") {
		t.Error("second Forget reported a cached entry")
	}
	if _, err := l.GridFor(context.Background(), l.key("gobmk", "coarse")); err != nil {
		t.Fatal(err)
	}
	if n := flightCount(counts, "gobmk/coarse"); n != 2 {
		t.Errorf("%d collections across a Forget, want 2", n)
	}
}

func TestCollectProgressCoversEveryColumn(t *testing.T) {
	var calls atomic.Int64
	var sawTotal atomic.Int64
	l, err := NewLab(WithCollectProgress(func(done, total int) {
		calls.Add(1)
		if done == total {
			sawTotal.Add(1)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.GridFor(context.Background(), l.key("gobmk", "coarse")); err != nil {
		t.Fatal(err)
	}
	want := int64(freq.CoarseSpace().Len())
	if n := calls.Load(); n != want {
		t.Errorf("progress calls = %d, want %d (one per setting column)", n, want)
	}
	if n := sawTotal.Load(); n != 1 {
		t.Errorf("done==total observed %d times, want exactly once", n)
	}
}
