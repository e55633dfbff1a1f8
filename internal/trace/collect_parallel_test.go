package trace

// Concurrency suite for the collection engine: the parallel sweep must be
// byte-identical to the serial reference at any pool size, and a cancelled
// context must stop the sweep within one sample's worth of work.

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/workload"
)

// gridJSON renders a grid to its canonical JSON bytes, the equality the
// determinism contract is stated in.
func gridJSON(t *testing.T, g *Grid) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

func TestCollectParallelMatchesSerial(t *testing.T) {
	sys := sim.MustNew(sim.DefaultConfig())
	space := freq.CoarseSpace()
	benches := workload.HeadlineNames()
	if len(benches) < 3 {
		t.Fatalf("need ≥3 benchmarks, suite has %d", len(benches))
	}
	for _, name := range benches[:3] {
		b := workload.MustByName(name)
		serial, err := CollectContext(context.Background(), sys, b, space, CollectOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		want := gridJSON(t, serial)
		for _, workers := range []int{4, 16} {
			par, err := CollectContext(context.Background(), sys, b, space, CollectOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if got := gridJSON(t, par); !bytes.Equal(got, want) {
				t.Errorf("%s: workers=%d grid differs from serial reference", name, workers)
			}
		}
		// The default (GOMAXPROCS) path is what the façade and the CLIs get.
		def, err := CollectContext(context.Background(), sys, b, space, CollectOptions{})
		if err != nil {
			t.Fatalf("%s default: %v", name, err)
		}
		if got := gridJSON(t, def); !bytes.Equal(got, want) {
			t.Errorf("%s: default-worker grid differs from serial reference", name)
		}
	}
}

func TestCollectContextCancelledBeforeStart(t *testing.T) {
	sys := sim.MustNew(sim.DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CollectContext(ctx, sys, smallBench(), freq.CoarseSpace(), CollectOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCollectContextCancelMidSweep(t *testing.T) {
	sys := sim.MustNew(sim.DefaultConfig())
	// The largest sweep available: every setting of the fine space for a
	// full-size benchmark, so cancellation strikes well before completion.
	b := workload.MustByName("gobmk")
	space := freq.FineSpace()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the sweep, as the first column reports, so the
	// strike lands mid-sweep however fast the engine runs.
	var reported atomic.Int64
	opts := CollectOptions{Workers: 2, OnProgress: func(done, total int) {
		reported.Add(1)
		if done == 1 {
			cancel()
		}
	}}
	type result struct {
		g   *Grid
		err error
	}
	finished := make(chan result, 1)
	go func() {
		g, err := CollectContext(ctx, sys, b, space, opts)
		finished <- result{g, err}
	}()
	// Workers poll the context at every column boundary, so the engine
	// must stop within a column per worker, not run the sweep to
	// completion. The bound is a channel timeout, not a wall-clock
	// measurement: the determinism check bans time.Now/Since here so
	// timing jitter cannot mask race-ordering bugs.
	select {
	case r := <-finished:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", r.err)
		}
		if r.g != nil {
			t.Error("cancelled collection returned a grid")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("collection did not return within 2s of cancellation, want far below one full sweep")
	}
	if n := reported.Load(); n >= int64(space.Len()) {
		t.Errorf("%d of %d columns reported after cancelling at the first, want fewer", n, space.Len())
	}
}

func TestCollectOptionsWorkerResolution(t *testing.T) {
	cases := []struct {
		workers, settings, want int
	}{
		{0, 70, -1},  // default: GOMAXPROCS, capped below
		{-3, 70, -1}, // negative behaves as default
		{4, 70, 4},
		{16, 5, 5}, // capped at the chain count
		{1, 70, 1},
	}
	for _, c := range cases {
		got := CollectOptions{Workers: c.workers}.workers(c.settings)
		if c.want == -1 {
			if got < 1 || got > c.settings {
				t.Errorf("workers(%d, %d) = %d, want within [1,%d]", c.workers, c.settings, got, c.settings)
			}
			continue
		}
		if got != c.want {
			t.Errorf("workers(%d, %d) = %d, want %d", c.workers, c.settings, got, c.want)
		}
	}
}
