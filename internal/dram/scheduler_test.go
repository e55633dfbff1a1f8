package dram

import "testing"

func TestScheduledEngineValidation(t *testing.T) {
	dev := DefaultDevice()
	if _, err := NewScheduledEngine(dev, 800, SchedulerPolicy(9), 8); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewScheduledEngine(dev, 800, FRFCFS, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewScheduledEngine(dev, 1600, FCFS, 8); err == nil {
		t.Error("out-of-range clock accepted")
	}
}

func TestEnqueueOrdering(t *testing.T) {
	s, err := NewScheduledEngine(DefaultDevice(), 800, FCFS, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(Request{ArrivalNS: 10, Bank: 0, Row: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(Request{ArrivalNS: 5, Bank: 0, Row: 1}); err == nil {
		t.Error("out-of-order enqueue accepted")
	}
}

func TestFCFSMatchesPlainEngine(t *testing.T) {
	dev := DefaultDevice()
	reqs := []Request{
		{ArrivalNS: 0, Bank: 0, Row: 1},
		{ArrivalNS: 5, Bank: 0, Row: 2},
		{ArrivalNS: 10, Bank: 1, Row: 1},
		{ArrivalNS: 15, Bank: 0, Row: 1},
	}
	plain, err := NewEngine(dev, 800)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.ServiceAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduledEngine(dev, 800, FCFS, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Enqueue(reqs...); err != nil {
		t.Fatal(err)
	}
	got, err := sched.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got.SumLatencyNS != want.SumLatencyNS || got.RowHits != want.RowHits {
		t.Errorf("FCFS scheduled engine diverged: %+v vs %+v", got, want)
	}
}

// frfcfsStream builds a bursty stream with interleaved rows in one bank so
// reordering has row hits to harvest: row A, row B, row A, row B... all
// arriving together.
func frfcfsStream(n int) []Request {
	var reqs []Request
	for i := 0; i < n; i++ {
		reqs = append(reqs, Request{ArrivalNS: float64(i), Bank: 0, Row: 1 + i%2})
	}
	return reqs
}

func TestFRFCFSImprovesRowHits(t *testing.T) {
	dev := DefaultDevice()
	run := func(policy SchedulerPolicy) EngineStats {
		s, err := NewScheduledEngine(dev, 800, policy, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Enqueue(frfcfsStream(32)...); err != nil {
			t.Fatal(err)
		}
		st, err := s.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	fcfs := run(FCFS)
	frfcfs := run(FRFCFS)
	if frfcfs.RowHits <= fcfs.RowHits {
		t.Errorf("FR-FCFS row hits %d not above FCFS %d", frfcfs.RowHits, fcfs.RowHits)
	}
	if frfcfs.AvgLatencyNS() >= fcfs.AvgLatencyNS() {
		t.Errorf("FR-FCFS avg latency %.1f not below FCFS %.1f",
			frfcfs.AvgLatencyNS(), fcfs.AvgLatencyNS())
	}
	// Both service every request.
	if frfcfs.Requests != fcfs.Requests || frfcfs.Requests != 32 {
		t.Errorf("request counts: %d vs %d", frfcfs.Requests, fcfs.Requests)
	}
}

func TestFRFCFSNeverServicesFutureRequests(t *testing.T) {
	// A row-hit candidate that has not arrived yet must not be promoted:
	// with widely spaced arrivals FR-FCFS degenerates to FCFS.
	dev := DefaultDevice()
	var reqs []Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, Request{ArrivalNS: float64(i) * 10_000, Bank: 0, Row: 1 + i%2})
	}
	run := func(policy SchedulerPolicy) EngineStats {
		s, err := NewScheduledEngine(dev, 800, policy, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Enqueue(reqs...); err != nil {
			t.Fatal(err)
		}
		st, err := s.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	fcfs := run(FCFS)
	frfcfs := run(FRFCFS)
	if frfcfs.SumLatencyNS != fcfs.SumLatencyNS {
		t.Errorf("sparse stream: FR-FCFS (%.1f) diverged from FCFS (%.1f) — promoted a future request",
			frfcfs.SumLatencyNS, fcfs.SumLatencyNS)
	}
}

func TestFRFCFSWindowBoundsReordering(t *testing.T) {
	// With window 1, FR-FCFS can only ever pick the oldest request.
	dev := DefaultDevice()
	s, err := NewScheduledEngine(dev, 800, FRFCFS, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(frfcfsStream(16)...); err != nil {
		t.Fatal(err)
	}
	got, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := NewEngine(dev, 800)
	want, _ := plain.ServiceAll(frfcfsStream(16))
	if got.SumLatencyNS != want.SumLatencyNS {
		t.Errorf("window-1 FR-FCFS diverged from FCFS")
	}
}
