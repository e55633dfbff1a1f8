package dram

import (
	"math"
	"testing"

	"mcdvfs/internal/freq"
)

func newEngine(t *testing.T, clock float64) *Engine {
	t.Helper()
	e, err := NewEngine(DefaultDevice(), mhz(clock))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

func TestEngineSingleColdAccess(t *testing.T) {
	e := newEngine(t, 800)
	res, err := e.Service(Request{ArrivalNS: 0, Bank: 0, Row: 1})
	if err != nil {
		t.Fatalf("Service: %v", err)
	}
	if res.RowHit {
		t.Error("cold access reported as row hit")
	}
	// Cold bank: tRCD + tCAS + full line transfer, in cycles at 800 MHz.
	d := DefaultDevice()
	tm, _ := d.TimingAt(800)
	period := mhz(800).PeriodNS()
	want := float64(tm.TRCD+tm.TCAS+tm.Burst*d.LineBursts()) * period
	if math.Abs(res.FinishNS-want) > 1e-9 {
		t.Errorf("cold latency = %v, want %v", res.FinishNS, want)
	}
}

func TestEngineRowHitFasterThanMiss(t *testing.T) {
	e := newEngine(t, 800)
	// First access opens row 5 in bank 0.
	first, err := e.Service(Request{ArrivalNS: 0, Bank: 0, Row: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Second access to the same row, issued well after the bank settles.
	hit, err := e.Service(Request{ArrivalNS: first.FinishNS + 100, Bank: 0, Row: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.RowHit {
		t.Fatal("same-row access not a row hit")
	}
	// Third access to a different row in the same bank: conflict.
	miss, err := e.Service(Request{ArrivalNS: hit.FinishNS + 100, Bank: 0, Row: 6})
	if err != nil {
		t.Fatal(err)
	}
	if miss.RowHit {
		t.Fatal("different-row access reported as hit")
	}
	hitLat := hit.FinishNS - (first.FinishNS + 100)
	missLat := miss.FinishNS - (hit.FinishNS + 100)
	if hitLat >= missLat {
		t.Errorf("hit latency %v not below miss latency %v", hitLat, missLat)
	}
}

func TestEngineBankParallelism(t *testing.T) {
	// Two simultaneous requests to different banks overlap their row
	// activations; the second should finish sooner than 2x a serial pair to
	// the same bank's different rows.
	eDiff := newEngine(t, 800)
	r1, _ := eDiff.Service(Request{ArrivalNS: 0, Bank: 0, Row: 1})
	r2, _ := eDiff.Service(Request{ArrivalNS: 0, Bank: 1, Row: 1})
	_ = r1

	eSame := newEngine(t, 800)
	s1, _ := eSame.Service(Request{ArrivalNS: 0, Bank: 0, Row: 1})
	s2, _ := eSame.Service(Request{ArrivalNS: 0, Bank: 0, Row: 2})
	_ = s1

	if r2.FinishNS >= s2.FinishNS {
		t.Errorf("bank-parallel finish %v not earlier than serial same-bank %v", r2.FinishNS, s2.FinishNS)
	}
}

func TestEngineDataBusSerializesBursts(t *testing.T) {
	e := newEngine(t, 800)
	r1, _ := e.Service(Request{ArrivalNS: 0, Bank: 0, Row: 1})
	r2, _ := e.Service(Request{ArrivalNS: 0, Bank: 1, Row: 1})
	line := DefaultDevice().LineTransferNS(800)
	if r2.FinishNS < r1.FinishNS+line-1e-9 {
		t.Errorf("line transfers overlapped on the data bus: %v then %v (line %v)", r1.FinishNS, r2.FinishNS, line)
	}
}

func TestEngineRefreshIntervenes(t *testing.T) {
	e := newEngine(t, 800)
	d := DefaultDevice()
	// Service an access, then one far in the future beyond several tREFI.
	if _, err := e.Service(Request{ArrivalNS: 0, Bank: 0, Row: 1}); err != nil {
		t.Fatal(err)
	}
	late := d.TREFIns*3 + 10
	if _, err := e.Service(Request{ArrivalNS: late, Bank: 0, Row: 1}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Counts.Refreshes < 3 {
		t.Errorf("refreshes = %d, want >= 3 after %v ns", st.Counts.Refreshes, late)
	}
	// Refresh closes rows, so the late same-row access must be a miss.
	if st.RowHits != 0 {
		t.Errorf("row hits = %d, want 0 (refresh closes rows)", st.RowHits)
	}
}

// TestEngineRefreshStallsForTRFC pins the refresh stall: a request that
// arrives at the first refresh deadline waits out the whole refresh cycle,
// so its first command issues tRFC (in cycles) after tREFI.
func TestEngineRefreshStallsForTRFC(t *testing.T) {
	e := newEngine(t, 800)
	d := DefaultDevice()
	res, err := e.Service(Request{ArrivalNS: d.TREFIns, Bank: 0, Row: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm, _ := d.TimingAt(800)
	want := d.TREFIns + float64(tm.TRFC)*mhz(800).PeriodNS()
	if math.Abs(res.StartNS-want) > 1e-9 {
		t.Errorf("request at tREFI started at %v, want %v (tREFI + tRFC)", res.StartNS, want)
	}
}

// TestEngineConflictWaitsForTRAS pins the row-open minimum: a row
// conflict's precharge (its StartNS) issues no earlier than tRAS after
// that row's activate, whether a cold access or an earlier conflict
// activated it. On DefaultDevice at 800 MHz a conflicting bank is ready
// 43.75 ns after its activate, past tRAS (42.5 ns), so the constraint
// never binds there; this device keeps rows open for 100 ns.
func TestEngineConflictWaitsForTRAS(t *testing.T) {
	dev := DefaultDevice()
	dev.TRASns = 100
	e, err := NewEngine(dev, 800)
	if err != nil {
		t.Fatal(err)
	}
	tm, _ := dev.TimingAt(800)
	period := mhz(800).PeriodNS()
	tRAS := float64(tm.TRAS) * period
	activate := 0.0 // the cold access activates row 1 on arrival
	if _, err := e.Service(Request{ArrivalNS: 0, Bank: 0, Row: 1}); err != nil {
		t.Fatal(err)
	}
	for _, row := range []int{2, 1} {
		res, err := e.Service(Request{ArrivalNS: 0, Bank: 0, Row: row})
		if err != nil {
			t.Fatal(err)
		}
		if want := activate + tRAS; math.Abs(res.StartNS-want) > 1e-9 {
			t.Errorf("conflict to row %d precharged at %v, want %v (activate %v + tRAS)",
				row, res.StartNS, want, activate)
		}
		activate = res.StartNS + float64(tm.TRP)*period
	}
}

func TestEngineWriteRecoveryDelaysBank(t *testing.T) {
	e := newEngine(t, 800)
	w, _ := e.Service(Request{ArrivalNS: 0, Bank: 0, Row: 1, Write: true})
	// A row hit immediately after a write waits out tWR, and no longer.
	h, _ := e.Service(Request{ArrivalNS: w.FinishNS, Bank: 0, Row: 1})
	tm, _ := DefaultDevice().TimingAt(800)
	period := mhz(800).PeriodNS()
	want := w.FinishNS + float64(tm.TWR)*period
	if math.Abs(h.StartNS-want) > 1e-9 {
		t.Errorf("post-write command at %v, want %v (write finish + tWR)", h.StartNS, want)
	}
}

func TestEngineStatsAccounting(t *testing.T) {
	e := newEngine(t, 400)
	reqs := []Request{
		{ArrivalNS: 0, Bank: 0, Row: 1},
		{ArrivalNS: 200, Bank: 0, Row: 1},              // hit
		{ArrivalNS: 400, Bank: 0, Row: 2},              // miss
		{ArrivalNS: 600, Bank: 1, Row: 1, Write: true}, // cold miss
	}
	st, err := e.ServiceAll(reqs)
	if err != nil {
		t.Fatalf("ServiceAll: %v", err)
	}
	lb := DefaultDevice().LineBursts()
	if st.Counts.Reads != 3*lb || st.Counts.Writes != 1*lb {
		t.Errorf("read/write bursts = %d/%d, want %d/%d", st.Counts.Reads, st.Counts.Writes, 3*lb, lb)
	}
	if st.RowHits != 1 || st.RowMisses != 3 {
		t.Errorf("hits/misses = %d/%d, want 1/3", st.RowHits, st.RowMisses)
	}
	if st.Counts.Activates != 3 {
		t.Errorf("activates = %d, want 3", st.Counts.Activates)
	}
	if got := st.RowHitRate(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("row hit rate = %v, want 0.25", got)
	}
	if st.AvgLatencyNS() <= 0 || st.MaxLatencyNS < st.AvgLatencyNS() {
		t.Errorf("latency stats inconsistent: avg %v max %v", st.AvgLatencyNS(), st.MaxLatencyNS)
	}
}

func TestEngineRejectsBadRequests(t *testing.T) {
	e := newEngine(t, 800)
	if _, err := e.Service(Request{Bank: -1, Row: 0}); err == nil {
		t.Error("negative bank accepted")
	}
	if _, err := e.Service(Request{Bank: 99, Row: 0}); err == nil {
		t.Error("out-of-range bank accepted")
	}
	if _, err := e.Service(Request{Bank: 0, Row: -2}); err == nil {
		t.Error("negative row accepted")
	}
	if _, err := e.ServiceAll([]Request{{ArrivalNS: 10, Bank: 0, Row: 0}, {ArrivalNS: 5, Bank: 0, Row: 0}}); err == nil {
		t.Error("out-of-order arrivals accepted")
	}
}

func TestEngineLowerClockHigherLatency(t *testing.T) {
	// The same sparse row-miss stream should take longer per request at
	// 200 MHz than at 800 MHz (burst and rounding effects dominate).
	stream := func() []Request {
		var reqs []Request
		for i := 0; i < 64; i++ {
			reqs = append(reqs, Request{ArrivalNS: float64(i) * 500, Bank: i % 8, Row: i})
		}
		return reqs
	}
	e800 := newEngine(t, 800)
	st800, err := e800.ServiceAll(stream())
	if err != nil {
		t.Fatal(err)
	}
	e200 := newEngine(t, 200)
	st200, err := e200.ServiceAll(stream())
	if err != nil {
		t.Fatal(err)
	}
	if st200.AvgLatencyNS() <= st800.AvgLatencyNS() {
		t.Errorf("avg latency at 200MHz (%v) not above 800MHz (%v)",
			st200.AvgLatencyNS(), st800.AvgLatencyNS())
	}
}

// mhz converts a float to freq.MHz for test brevity.
func mhz(f float64) freq.MHz { return freq.MHz(f) }
