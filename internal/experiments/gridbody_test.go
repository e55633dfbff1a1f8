package experiments

// The Lab's kept grid bodies: GridJSON's bytes are encoding/json's
// whether encoded or kept, a body is kept from its grid's second body
// request within the bodyBudget bound, a hotter grid's body displaces a
// colder one's, an entry that left the cache keeps nothing, a kept read
// allocates nothing, and the kept bytes return to the budget however the
// entry leaves the cache.

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"mcdvfs/internal/workload"
)

func newBodyLab(t *testing.T, opts ...Option) *Lab {
	t.Helper()
	l, err := NewLab(opts...)
	if err != nil {
		t.Fatalf("NewLab: %v", err)
	}
	return l
}

// gridJSON reads k's body through GridJSON into a fresh buffer, failing
// the test on an error. The result is a copy, so a later read cannot
// change it.
func gridJSON(t *testing.T, l *Lab, k GridKey) (body []byte, kept bool) {
	t.Helper()
	body, kept, err := l.GridJSON(context.Background(), k, nil)
	if err != nil {
		t.Fatalf("GridJSON(%s): %v", k, err)
	}
	return bytes.Clone(body), kept
}

// checkBodies checks the budget's bookkeeping: keptBytes is the sum of
// the kept bodies, stays within bodyBudget, and every kept entry is the
// cache's resident entry for its key.
func checkBodies(t *testing.T, l *Lab) {
	t.Helper()
	l.bodyMu.Lock()
	defer l.bodyMu.Unlock()
	sum := 0
	for _, e := range l.kept {
		if e.body == nil || !l.resident(e) {
			t.Errorf("kept entry %s: body of %d bytes, resident %v; want a body on a resident entry", e.key, len(e.body), l.resident(e))
		}
		sum += len(e.body)
	}
	if sum != l.keptBytes || l.keptBytes > bodyBudget {
		t.Errorf("keptBytes %d, kept bodies sum to %d, budget %d", l.keptBytes, sum, bodyBudget)
	}
}

// TestGridJSONMatchesEncodingJSON: for every built-in benchmark's coarse
// grid, the first body (encoded, not kept), the second (encoded and
// admitted) and the third (the kept copy) are encoding/json's bytes.
// Forgetting the benchmark returns its bytes to the budget.
func TestGridJSONMatchesEncodingJSON(t *testing.T) {
	l := newBodyLab(t)
	ctx := context.Background()
	for _, name := range workload.Names() {
		k := l.key(name, "coarse")
		g, err := l.GridFor(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(g); err != nil {
			t.Fatal(err)
		}
		for read, wantKept := range []bool{false, false, true} {
			body, kept := gridJSON(t, l, k)
			if kept != wantKept || !bytes.Equal(body, want.Bytes()) {
				t.Fatalf("%s read %d: kept %v, %d bytes equal to encoding/json's %d: %v; want kept %v and equal",
					name, read+1, kept, len(body), want.Len(), bytes.Equal(body, want.Bytes()), wantKept)
			}
		}
		if got := l.KeptBodyBytes(); got != want.Len() {
			t.Errorf("%s: %d kept bytes, want its body's %d", name, got, want.Len())
		}
		checkBodies(t, l)
		l.Forget(name)
		if got := l.KeptBodyBytes(); got != 0 {
			t.Fatalf("%s forgotten: %d kept bytes, want 0", name, got)
		}
	}
}

// TestGridJSONKeepsNoOversizeBody: bzip2's fine body (15.2 MB) is larger
// than the budget, as every fine body is, so it is encoded on every read
// and never kept.
func TestGridJSONKeepsNoOversizeBody(t *testing.T) {
	l := newBodyLab(t)
	k := l.key("bzip2", "fine")
	for read := 1; read <= 3; read++ {
		body, kept := gridJSON(t, l, k)
		if kept || len(body) <= bodyBudget || l.KeptBodyBytes() != 0 {
			t.Fatalf("read %d: kept %v, %d-byte body, %d kept bytes; want a body over the %d-byte budget, never kept",
				read, kept, len(body), l.KeptBodyBytes(), bodyBudget)
		}
	}
}

// TestHotterBodyDisplacesColder fills the budget with bodies read twice
// beside gobmk's, the smallest coarse body, read four times, until one
// read twice does not fit. A third read of that one displaces bodies read
// twice, and never gobmk's.
func TestHotterBodyDisplacesColder(t *testing.T) {
	l := newBodyLab(t)
	hot := l.key("gobmk", "coarse")
	for i := 0; i < 4; i++ {
		gridJSON(t, l, hot)
	}
	var late GridKey
	var warm []GridKey
	for _, name := range workload.Names() {
		if name == hot.Benchmark {
			continue
		}
		k := l.key(name, "coarse")
		before := l.KeptBodyBytes()
		gridJSON(t, l, k)
		gridJSON(t, l, k)
		if l.KeptBodyBytes() == before {
			late = k
			break
		}
		warm = append(warm, k)
	}
	if late == (GridKey{}) || len(warm) == 0 {
		t.Fatalf("%d coarse bodies read twice fit the budget beside gobmk's before one did not (%v); want at least one, and one that does not fit", len(warm), late)
	}
	if _, kept := gridJSON(t, l, late); kept {
		t.Fatalf("%s: third read answered from a kept body it was refused", late)
	}
	checkBodies(t, l)
	if _, kept := gridJSON(t, l, late); !kept {
		t.Errorf("%s, read 3 times, did not displace bodies read twice", late)
	}
	if _, kept := gridJSON(t, l, hot); !kept {
		t.Errorf("gobmk, read 5 times, lost its body to %s", late)
	}
	displaced := 0
	for _, k := range warm {
		l.bodyMu.Lock()
		if e, ok := l.grids.Peek(k); ok && e.body == nil {
			displaced++
		}
		l.bodyMu.Unlock()
	}
	if displaced == 0 {
		t.Errorf("no body read twice gave way to %s", late)
	}
	checkBodies(t, l)
}

// TestLeftEntryKeepsNoBody forgets gobmk while its second body request
// is between the cache read and the admission, as an eviction or Forget
// racing the encoder would: the body must not be kept for an entry the
// cache no longer holds, where no later eviction or Forget would find it.
func TestLeftEntryKeepsNoBody(t *testing.T) {
	var l *Lab
	armed := false
	l = newBodyLab(t, WithGridObserver(func(ev GridEvent) {
		if armed && ev.Kind == GridHit {
			armed = false
			l.Forget(ev.Benchmark)
		}
	}))
	k := l.key("gobmk", "coarse")
	gridJSON(t, l, k)
	armed = true
	if _, kept := gridJSON(t, l, k); kept || l.KeptBodyBytes() != 0 {
		t.Fatalf("second read, its entry forgotten mid-request: kept %v, %d kept bytes; want nothing kept", kept, l.KeptBodyBytes())
	}
	checkBodies(t, l)
}

// TestKeptBodyReadDoesNotAllocate guards the read every hot grid request
// pays: a kept body comes back without an allocation.
func TestKeptBodyReadDoesNotAllocate(t *testing.T) {
	l := newBodyLab(t)
	ctx := context.Background()
	k := l.key("gobmk", "coarse")
	for i := 0; i < 2; i++ {
		gridJSON(t, l, k)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, kept, err := l.GridJSON(ctx, k, nil); !kept || err != nil {
			t.Fatalf("GridJSON: kept %v, %v; want the kept body", kept, err)
		}
	})
	if n != 0 {
		t.Errorf("kept-body read: %v allocations per run, want 0", n)
	}
}

// TestKeptBodiesUnderEvictionAndForget races body admission against LRU
// eviction (a two-grid bound over four benchmarks) and Forget. The
// bookkeeping must hold throughout, and the kept bytes must read 0 once
// every benchmark is forgotten.
func TestKeptBodiesUnderEvictionAndForget(t *testing.T) {
	l := newBodyLab(t, WithMaxGrids(2))
	names := []string{"gobmk", "soplex", "gemsfdtd", "leslie3d"}
	ctx := context.Background()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				k := l.key(names[(r+i/3)%len(names)], "coarse")
				if _, _, err := l.GridJSON(ctx, k, nil); err != nil {
					t.Errorf("GridJSON(%s): %v", k, err)
					return
				}
				if got := l.KeptBodyBytes(); got > bodyBudget {
					t.Errorf("%d kept bytes, over the %d-byte budget", got, bodyBudget)
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			l.Forget(names[i%len(names)])
		}
	}()
	wg.Wait()
	checkBodies(t, l)
	for _, name := range names {
		l.Forget(name)
	}
	if got := l.KeptBodyBytes(); got != 0 {
		t.Errorf("every benchmark forgotten: %d kept bytes, want 0", got)
	}
}
