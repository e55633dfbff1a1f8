package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"

	"mcdvfs/internal/core"
	"mcdvfs/internal/workload"
)

// sharedLab caches collected grids across all tests in this package;
// collection is the expensive step and the Lab is safe for concurrent use.
var (
	labOnce sync.Once
	lab     *Lab
	labErr  error
)

func testLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		lab, labErr = NewLab()
	})
	if labErr != nil {
		t.Fatalf("NewLab: %v", labErr)
	}
	return lab
}

// runOutput runs r on l and returns what it wrote.
func runOutput(l *Lab, r Runner) ([]byte, error) {
	var buf bytes.Buffer
	err := r.Run(context.Background(), l, &buf)
	return buf.Bytes(), err
}

func TestLabGridCaching(t *testing.T) {
	l := testLab(t)
	g1, err := l.GridFor(context.Background(), l.key("gobmk", "coarse"))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := l.GridFor(context.Background(), l.key("gobmk", "coarse"))
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("grid not cached")
	}
	a1, err := l.AnalysisFor(context.Background(), l.key("gobmk", "coarse"))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := l.AnalysisFor(context.Background(), l.key("gobmk", "coarse"))
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("analysis not cached")
	}
}

func TestLabRejectsUnknownBenchmark(t *testing.T) {
	l := testLab(t)
	if _, err := l.GridFor(context.Background(), l.key("nonesuch", "coarse")); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := l.AnalysisFor(context.Background(), l.key("nonesuch", "coarse")); err == nil {
		t.Error("unknown benchmark accepted by AnalysisFor")
	}
}

func TestRunnerRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range Runners() {
		if r.ID == "" || r.Description == "" || r.Run == nil {
			t.Errorf("incomplete runner %+v", r)
		}
		if ids[r.ID] {
			t.Errorf("duplicate runner ID %q", r.ID)
		}
		ids[r.ID] = true
	}
	// One runner per paper figure (2..12) plus the governor comparison.
	for _, want := range []string{"fig2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "governors",
		"modelcmp", "baselines", "cachesens", "lowpower", "imax", "hetero",
		"fastdvfs", "pareto"} {
		if !ids[want] {
			t.Errorf("missing runner %q", want)
		}
	}
	if _, err := RunnerByID("fig8"); err != nil {
		t.Errorf("RunnerByID(fig8): %v", err)
	}
	if _, err := RunnerByID("nonesuch"); err == nil {
		t.Error("unknown runner ID accepted")
	}
}

// TestRunnersStopOnCancelledContext runs every registry runner under a
// cancelled context, on a fresh lab and on one whose grids are all
// resident: each must return the context's error, whether its next step
// is a collection, a resident grid or a governor run, and the fresh lab
// must keep no grid.
func TestRunnersStopOnCancelledContext(t *testing.T) {
	warm := testLab(t)
	for _, bench := range workload.Names() {
		for _, space := range []string{"coarse", "fine"} {
			if _, err := warm.GridFor(context.Background(), warm.key(bench, space)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range Runners() {
		fresh, err := NewLab()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(ctx, fresh, io.Discard); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on a fresh lab: err %v, want context.Canceled", r.ID, err)
		}
		if n := fresh.ResidentGrids(); n != 0 {
			t.Errorf("%s: %d grids resident after a cancelled run, want 0", r.ID, n)
		}
		if err := r.Run(ctx, warm, io.Discard); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with every grid resident: err %v, want context.Canceled", r.ID, err)
		}
	}
}

func TestBudgetLabel(t *testing.T) {
	if got := BudgetLabel(1.3); got != "1.3" {
		t.Errorf("BudgetLabel(1.3) = %q", got)
	}
	if got := BudgetLabel(core.Unconstrained); got != "inf" {
		t.Errorf("BudgetLabel(inf) = %q", got)
	}
}
