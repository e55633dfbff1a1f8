package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"

	"mcdvfs/internal/core"
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

// TestRunnersStopOnCancelledContext runs every registry runner on a fresh
// lab under a cancelled context: each one that collects must return the
// context's error and leave no grid resident. fastdvfs collects nothing,
// so it runs to completion.
func TestRunnersStopOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range Runners() {
		l, err := NewLab()
		if err != nil {
			t.Fatal(err)
		}
		err = r.Run(ctx, l, io.Discard)
		switch {
		case r.ID == "fastdvfs":
			if err != nil {
				t.Errorf("%s: %v, want it to run without collecting", r.ID, err)
			}
		case !errors.Is(err, context.Canceled):
			t.Errorf("%s: err %v, want context.Canceled", r.ID, err)
		}
		if n := l.ResidentGrids(); n != 0 {
			t.Errorf("%s: %d grids resident after a cancelled run, want 0", r.ID, n)
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
