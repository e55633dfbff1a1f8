package lru

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func mustNew[K comparable, V any](t *testing.T, max int, onEvict func(K)) *Cache[K, V] {
	t.Helper()
	c, err := New[K, V](max, onEvict)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fill is a Do function that returns v at once.
func fill(v int) func() (int, error) { return func() (int, error) { return v, nil } }

// blocked is a Do function that waits for release and then returns v, err.
func blocked(release <-chan struct{}, v int, err error) func() (int, error) {
	return func() (int, error) {
		<-release
		return v, err
	}
}

// peek reads key's completed value without joining a running flight or
// changing the eviction order.
func peek(c *Cache[string, int], key string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.completedLocked(key); ok {
		return el.Value.(*entry[string, int]).val, true
	}
	return 0, false
}

// inflight lists the keys of resident entries whose flight is still
// running, most recently used first.
func inflight(c *Cache[string, int]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	for el := c.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*entry[string, int]); !e.finished() {
			keys = append(keys, e.key)
		}
	}
	return keys
}

// waitInflight spins until key's flight is running.
func waitInflight(c *Cache[string, int], key string) {
	for {
		for _, k := range inflight(c) {
			if k == key {
				return
			}
		}
		runtime.Gosched()
	}
}

func TestNewRejectsNonPositiveCapacity(t *testing.T) {
	for _, max := range []int{0, -1} {
		if _, err := New[string, int](max, nil); err == nil {
			t.Errorf("capacity %d accepted", max)
		}
	}
}

// TestHitDoesNotAllocate guards Do's fast path: reading a completed entry
// is what every cached request pays, and it allocates nothing.
func TestHitDoesNotAllocate(t *testing.T) {
	c := mustNew[string, int](t, 2, nil)
	ctx := context.Background()
	f := fill(1)
	if _, _, err := c.Do(ctx, "k", f); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if v, joined, err := c.Do(ctx, "k", f); v != 1 || !joined || err != nil {
			t.Fatalf("Do(k) = %v, %v, %v; want the cached 1", v, joined, err)
		}
	})
	if n != 0 {
		t.Errorf("Do on a completed entry: %v allocations per run, want 0", n)
	}
}

func TestEvictionOrderIsLeastRecentlyUsed(t *testing.T) {
	ctx := context.Background()
	var evicted []string
	c := mustNew[string, int](t, 3, func(k string) { evicted = append(evicted, k) })

	for i, k := range []string{"a", "b", "c"} {
		if _, joined, _ := c.Do(ctx, k, fill(i)); joined {
			t.Fatalf("first Do(%s) joined", k)
		}
	}
	// A joining Do touches a: order (MRU->LRU) is now a, c, b.
	if v, joined, _ := c.Do(ctx, "a", fill(-1)); !joined || v != 0 {
		t.Fatalf("Do(a) = %d,%v, want the resident 0,true", v, joined)
	}
	c.Do(ctx, "d", fill(3)) // displaces b
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if _, ok := peek(c, "b"); ok {
		t.Error("b still present after eviction")
	}
	for k, want := range map[string]int{"a": 0, "c": 2, "d": 3} {
		if v, ok := peek(c, k); !ok || v != want {
			t.Errorf("peek(%s) = %d,%v, want %d,true", k, v, ok, want)
		}
	}
}

func TestRemoveSkipsEvictionCallback(t *testing.T) {
	evictions := 0
	c := mustNew[string, int](t, 2, func(string) { evictions++ })
	c.Do(context.Background(), "a", fill(1))
	if !c.Remove("a") {
		t.Error("Remove(a) = false, want true")
	}
	if c.Remove("a") {
		t.Error("second Remove(a) = true, want false")
	}
	if evictions != 0 {
		t.Errorf("%d eviction callbacks from Remove, want 0", evictions)
	}
	if c.Len() != 0 {
		t.Errorf("Len() = %d, want 0", c.Len())
	}
}

func TestEvictionCallbackMayReenter(t *testing.T) {
	// The Lab's eviction callback reports to an observer that may read
	// the cache again; the callback must therefore run unlocked.
	var c *Cache[string, int]
	c = mustNew[string, int](t, 1, func(string) {
		_ = c.Len() // deadlocks if the callback held the lock
	})
	c.Do(context.Background(), "a", fill(1))
	c.Do(context.Background(), "b", fill(2))
	if c.Len() != 1 {
		t.Errorf("Len() = %d, want 1", c.Len())
	}
}

func TestDoCoalescesConcurrentCallers(t *testing.T) {
	c := mustNew[string, int](t, 4, nil)
	release := make(chan struct{})
	var calls, joins atomic.Int64
	fn := func() (int, error) {
		calls.Add(1)
		<-release
		return 7, nil
	}
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, joined, err := c.Do(context.Background(), "k", fn)
			if err != nil || v != 7 {
				t.Errorf("Do = %d,%v, want 7,nil", v, err)
			}
			if joined {
				joins.Add(1)
			}
		}()
	}
	waitInflight(c, "k")
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	if n := joins.Load(); n != callers-1 {
		t.Errorf("%d callers joined, want %d", n, callers-1)
	}
}

func TestWaiterCancellationKeepsFlight(t *testing.T) {
	c := mustNew[string, int](t, 4, nil)
	release := make(chan struct{})
	owner := make(chan int, 1)
	go func() {
		v, _, _ := c.Do(context.Background(), "k", blocked(release, 7, nil))
		owner <- v
	}()
	waitInflight(c, "k")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, joined, err := c.Do(ctx, "k", fill(-1)); !joined || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter = joined %v, err %v; want true, context.Canceled", joined, err)
	}
	close(release)
	if v := <-owner; v != 7 {
		t.Fatalf("owner got %d, want 7", v)
	}
	if v, ok := peek(c, "k"); !ok || v != 7 {
		t.Errorf("peek after the abandoned wait = %d,%v, want 7,true", v, ok)
	}
}

// TestFailedFlightRemovesOnlyItsOwnEntry: a flight that fails after its
// entry was removed must not drop the newer entry that replaced it.
func TestFailedFlightRemovesOnlyItsOwnEntry(t *testing.T) {
	c := mustNew[string, int](t, 4, nil)
	release := make(chan struct{})
	failed := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", blocked(release, 0, errors.New("boom")))
		failed <- err
	}()
	waitInflight(c, "k")
	if !c.Remove("k") {
		t.Fatal("Remove of the running flight reported nothing resident")
	}
	if v, joined, err := c.Do(context.Background(), "k", fill(9)); joined || err != nil || v != 9 {
		t.Fatalf("second Do = %d,%v,%v, want its own 9", v, joined, err)
	}
	close(release)
	if err := <-failed; err == nil {
		t.Fatal("first flight succeeded, want its error")
	}
	if v, ok := peek(c, "k"); !ok || v != 9 {
		t.Errorf("peek after the stale failure = %d,%v, want the newer 9,true", v, ok)
	}

	// A failure whose entry is still resident removes it, so the next Do
	// retries instead of serving the error.
	if _, _, err := c.Do(context.Background(), "x", func() (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("failing Do returned no error")
	}
	if v, joined, err := c.Do(context.Background(), "x", fill(3)); joined || err != nil || v != 3 {
		t.Errorf("retry after failure = %d,%v,%v, want a fresh 3", v, joined, err)
	}
}

// TestEvictsRunningFlight: the bound holds even over running flights; the
// evicted flight's caller still gets its value, which is not kept.
func TestEvictsRunningFlight(t *testing.T) {
	var evicted []string
	c := mustNew[string, int](t, 1, func(k string) { evicted = append(evicted, k) })
	release := make(chan struct{})
	owner := make(chan int, 1)
	go func() {
		v, _, _ := c.Do(context.Background(), "a", blocked(release, 1, nil))
		owner <- v
	}()
	waitInflight(c, "a")
	c.Do(context.Background(), "b", fill(2))
	if c.Len() != 1 || len(inflight(c)) != 0 {
		t.Errorf("Len %d, inflight %v after evicting the running flight, want 1, []", c.Len(), inflight(c))
	}
	close(release)
	if v := <-owner; v != 1 {
		t.Fatalf("evicted flight's owner got %d, want 1", v)
	}
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Errorf("evicted %v, want [a]", evicted)
	}
	if _, ok := peek(c, "a"); ok {
		t.Error("evicted flight's result was kept")
	}
}

// TestConcurrentAccess hammers one cache from many goroutines; run under
// -race (the Makefile race tier does) to certify the locking.
func TestConcurrentAccess(t *testing.T) {
	var evicted atomic.Int64
	c := mustNew[string, int](t, 32, func(string) { evicted.Add(1) })

	const goroutines = 16
	const opsPer = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				n := (g*opsPer + i) % 64
				key := fmt.Sprintf("k%d", n)
				switch {
				case i%3 != 2:
					if v, _, err := c.Do(context.Background(), key, fill(n)); err != nil || v != n {
						t.Errorf("Do(%s) = %d,%v, want %d", key, v, err, n)
					}
				case i%30 == 2:
					c.Remove(key)
				default:
					if v, ok := peek(c, key); ok && v != n {
						t.Errorf("peek(%s) = %d, want %d", key, v, n)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if n := c.Len(); n > 32 {
		t.Errorf("Len() = %d after churn, want <= capacity 32", n)
	}
	if keys := inflight(c); len(keys) != 0 {
		t.Errorf("inflight = %v after every flight returned, want none", keys)
	}
	if evicted.Load() == 0 {
		t.Error("64 keys through a 32-entry cache evicted nothing")
	}
}
