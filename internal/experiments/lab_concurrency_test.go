package experiments

// Concurrency suite for the Lab's bounded singleflight grid cache: N
// goroutines per key must trigger exactly one collection, losing waiters
// must unblock on their own cancellation without killing the flight, an
// owner's cancellation must leave no partial grid cached, a flight that
// outlives its entry must neither drop a newer grid nor keep its analysis.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

// countingLab wraps a fresh Lab's collect hook with a per-key flight
// counter, optionally delaying each flight to widen the race window.
func countingLab(t *testing.T, delay time.Duration, opts ...Option) (*Lab, *sync.Map) {
	t.Helper()
	l, err := NewLab(opts...)
	if err != nil {
		t.Fatalf("NewLab: %v", err)
	}
	var counts sync.Map // key string -> *atomic.Int64
	inner := l.collect
	l.collect = func(ctx context.Context, sys *sim.System, b workload.Benchmark, space *freq.Space, o trace.CollectOptions) (*trace.Grid, error) {
		c, _ := counts.LoadOrStore(b.Name+"/"+spaceKind(space), new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return inner(ctx, sys, b, space, o)
	}
	return l, &counts
}

func spaceKind(space *freq.Space) string {
	if space.Len() == freq.FineSpace().Len() {
		return "fine"
	}
	return "coarse"
}

func flightCount(counts *sync.Map, key string) int64 {
	c, ok := counts.Load(key)
	if !ok {
		return 0
	}
	return c.(*atomic.Int64).Load()
}

func TestLabSingleflightUnderContention(t *testing.T) {
	l, counts := countingLab(t, 2*time.Millisecond)
	benches := []string{"gobmk", "milc", "lbm", "bzip2"}
	const perBench = 8 // 32 goroutines over 4 overlapping keys

	var wg sync.WaitGroup
	grids := make([][]*trace.Grid, len(benches))
	for i := range grids {
		grids[i] = make([]*trace.Grid, perBench)
	}
	errs := make(chan error, len(benches)*perBench+perBench)
	for i, name := range benches {
		for j := 0; j < perBench; j++ {
			wg.Add(1)
			go func(i, j int, name string) {
				defer wg.Done()
				g, err := l.GridFor(context.Background(), l.key(name, "coarse"))
				if err != nil {
					errs <- err
					return
				}
				grids[i][j] = g
			}(i, j, name)
		}
	}
	// Overlap a fine-grid flight for one of the same benchmarks: distinct
	// key space, same lab, same contention window.
	fineGrids := make([]*trace.Grid, perBench)
	for j := 0; j < perBench; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			g, err := l.GridFor(context.Background(), l.key("gobmk", "fine"))
			if err != nil {
				errs <- err
				return
			}
			fineGrids[j] = g
		}(j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i, name := range benches {
		if n := flightCount(counts, name+"/coarse"); n != 1 {
			t.Errorf("%s: %d coarse collections, want exactly 1", name, n)
		}
		for j := 1; j < perBench; j++ {
			if grids[i][j] != grids[i][0] {
				t.Errorf("%s: goroutine %d saw a different grid pointer", name, j)
			}
		}
	}
	if n := flightCount(counts, "gobmk/fine"); n != 1 {
		t.Errorf("gobmk fine: %d collections, want exactly 1", n)
	}
	for j := 1; j < perBench; j++ {
		if fineGrids[j] != fineGrids[0] {
			t.Errorf("fine goroutine %d saw a different grid pointer", j)
		}
	}
}

func TestLabLosingWaiterCancellation(t *testing.T) {
	l, counts := countingLab(t, 50*time.Millisecond)

	// Owner: uncancellable flight.
	ownerDone := make(chan error, 1)
	go func() {
		_, err := l.GridFor(context.Background(), l.key("gobmk", "coarse"))
		ownerDone <- err
	}()
	// Give the owner the flight, then join as a cancellable waiter.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := l.GridFor(ctx, l.key("gobmk", "coarse"))
		waiterDone <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()

	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-ownerDone:
		t.Fatal("owner finished before the cancelled waiter unblocked")
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not unblock")
	}
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner err = %v", err)
	}

	// The abandoned waiter must not have hurt the cache: the grid is in,
	// and a fresh request is a pure hit.
	if _, err := l.GridFor(context.Background(), l.key("gobmk", "coarse")); err != nil {
		t.Fatalf("post-cancellation GridFor: %v", err)
	}
	if n := flightCount(counts, "gobmk/coarse"); n != 1 {
		t.Errorf("%d collections after waiter cancellation, want exactly 1", n)
	}
}

func TestLabOwnerCancellationLeavesNoPartialGrid(t *testing.T) {
	l, counts := countingLab(t, 0)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// The fine sweep is long enough that cancellation lands mid-flight.
		_, err := l.GridFor(ctx, l.key("milc", "fine"))
		done <- err
	}()
	time.Sleep(3 * time.Millisecond)
	cancel()
	// Bound cancellation latency with a channel timeout rather than a
	// time.Now/Since measurement: the determinism check bans wall-clock
	// reads in this suite so timing jitter cannot mask ordering bugs.
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("owner err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled owner did not return within 2s, want far below one full sweep")
	}

	// No partial grid may linger: the next request collects from scratch
	// and succeeds.
	g, err := l.GridFor(context.Background(), l.key("milc", "fine"))
	if err != nil {
		t.Fatalf("fine GridFor after cancelled flight: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("recollected grid invalid: %v", err)
	}
	if n := flightCount(counts, "milc/fine"); n != 2 {
		t.Errorf("%d collections, want 2 (cancelled flight + clean retry)", n)
	}
}

// TestLabFailedFlightKeepsNewerGrid: a flight that fails after Forget
// dropped its entry must leave alone the newer grid collected meanwhile.
func TestLabFailedFlightKeepsNewerGrid(t *testing.T) {
	var admissions atomic.Int64
	waiting := make(chan struct{})
	release := make(chan struct{})
	gate := func(ctx context.Context) (func(), error) {
		if admissions.Add(1) == 1 {
			close(waiting)
			<-release
			return nil, errors.New("shed")
		}
		return func() {}, nil
	}
	l, counts := countingLab(t, 0, WithCollectGate(gate))

	first := make(chan error, 1)
	go func() {
		_, err := l.GridFor(context.Background(), l.key("gobmk", "coarse"))
		first <- err
	}()
	<-waiting
	if !l.Forget("gobmk") {
		t.Fatal("Forget found no entry for the waiting flight")
	}
	if _, err := l.GridFor(context.Background(), l.key("gobmk", "coarse")); err != nil {
		t.Fatalf("second GridFor: %v", err)
	}
	close(release)
	if err := <-first; err == nil {
		t.Fatal("first flight succeeded, want the gate's error")
	}

	if _, err := l.GridFor(context.Background(), l.key("gobmk", "coarse")); err != nil {
		t.Fatal(err)
	}
	if n := flightCount(counts, "gobmk/coarse"); n != 1 {
		t.Errorf("%d collections, want 1", n)
	}
}

// TestLabForgetMidFlightDropsAnalysis: an analysis built from a flight
// whose entry was forgotten mid-flight must not outlive the entry.
func TestLabForgetMidFlightDropsAnalysis(t *testing.T) {
	l, counts := countingLab(t, 0)
	started := make(chan struct{})
	release := make(chan struct{})
	inner := l.collect
	var calls atomic.Int64
	l.collect = func(ctx context.Context, sys *sim.System, b workload.Benchmark, space *freq.Space, o trace.CollectOptions) (*trace.Grid, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
		}
		return inner(ctx, sys, b, space, o)
	}

	first := make(chan error, 1)
	go func() {
		_, err := l.AnalysisFor(context.Background(), l.key("gobmk", "coarse"))
		first <- err
	}()
	<-started
	if !l.Forget("gobmk") {
		t.Fatal("Forget found no entry for the running flight")
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first AnalysisFor: %v", err)
	}

	if _, err := l.AnalysisFor(context.Background(), l.key("gobmk", "coarse")); err != nil {
		t.Fatal(err)
	}
	if n := flightCount(counts, "gobmk/coarse"); n != 2 {
		t.Errorf("%d collections, want 2 (the forgotten flight's analysis must not be kept)", n)
	}
}
