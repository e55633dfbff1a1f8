package memctrl

// Equivalence suite pinning the hoisted Coeffs evaluation to the Model
// methods bit-for-bit: the batch simulator's correctness rests on CoeffsAt
// + the Coeffs methods being a pure reassociation-free hoisting of
// AvgLatencyNS / MinServiceTimeNS. Over every memory clock of both spaces,
// row-hit rates and write fractions at 0 and 1, and access rates past the
// utilization cap, every term must also come out non-negative and finite.

import (
	"math"
	"slices"
	"testing"

	"mcdvfs/internal/dram"
	"mcdvfs/internal/freq"
)

func TestCoeffsMatchModel(t *testing.T) {
	m := MustNew(dram.DefaultDevice())
	loads := []Load{
		{},
		{AccessPerNS: 0.001, RowHitRate: 0.9, WriteFrac: 0.1},
		{AccessPerNS: 0.02, RowHitRate: 0.6, WriteFrac: 0.3},
		{AccessPerNS: 0.02, RowHitRate: 1, WriteFrac: 0},
		{AccessPerNS: 0.02, RowHitRate: 0, WriteFrac: 1},
		{AccessPerNS: 0.2, RowHitRate: 0, WriteFrac: 1}, // beyond the util cap
		{AccessPerNS: 0.05, RowHitRate: 1, WriteFrac: 0.5},
		{AccessPerNS: 1, RowHitRate: 1, WriteFrac: 0}, // beyond the util cap
	}
	for _, f := range slices.Concat(freq.CoarseSpace().MemLadder(), freq.FineSpace().MemLadder()) {
		c, err := m.CoeffsAt(f)
		if err != nil {
			t.Fatalf("CoeffsAt(%v): %v", f, err)
		}
		if !(c.RefreshDenom > 0 && c.RefreshDenom <= 1 && c.UtilCap > 0 && c.UtilCap <= 0.95) {
			t.Errorf("f=%v: RefreshDenom %v outside (0, 1] or UtilCap %v outside (0, 0.95]", f, c.RefreshDenom, c.UtilCap)
		}
		for _, l := range loads {
			want, err := m.AvgLatencyNS(f, l)
			if err != nil {
				t.Fatalf("AvgLatencyNS(%v, %+v): %v", f, l, err)
			}
			service := c.ServiceNS(l.WriteFrac)
			queue := c.QueueNS(l.AccessPerNS, service)
			got := c.CoreServiceNS(l.RowHitRate) + queue
			if got != want {
				t.Errorf("f=%v load=%+v: coeffs latency %v != model %v", f, l, got, want)
			}
			core, err := m.CoreServiceNS(f, l.RowHitRate)
			if err != nil {
				t.Fatal(err)
			}
			if c.CoreServiceNS(l.RowHitRate) != core {
				t.Errorf("f=%v: coeffs core %v != model %v", f, c.CoreServiceNS(l.RowHitRate), core)
			}
			for _, term := range []struct {
				name string
				v    float64
			}{{"core", core}, {"service", service}, {"queue", queue}, {"latency", want}} {
				if !(term.v >= 0) || math.IsInf(term.v, 0) {
					t.Errorf("f=%v load=%+v: %s time %v is negative or not finite", f, l, term.name, term.v)
				}
			}
		}
		for _, n := range []float64{0, 1, 1500.5, 6e5} {
			want, err := m.MinServiceTimeNS(f, n)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.MinServiceTimeNS(n); got != want {
				t.Errorf("f=%v n=%v: coeffs bound %v != model %v", f, n, got, want)
			}
			if !(want >= 0) {
				t.Errorf("f=%v n=%v: bandwidth bound %v is negative", f, n, want)
			}
		}
	}
}

func TestCoeffsAtRejectsBadClock(t *testing.T) {
	m := MustNew(dram.DefaultDevice())
	if _, err := m.CoeffsAt(100); err == nil {
		t.Error("under-range clock accepted")
	}
	if _, err := m.CoeffsAt(5000); err == nil {
		t.Error("over-range clock accepted")
	}
}
