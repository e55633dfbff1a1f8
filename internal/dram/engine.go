package dram

import (
	"fmt"

	"mcdvfs/internal/freq"
)

// Request is one memory access presented to the command engine.
type Request struct {
	ArrivalNS float64 // time the request reaches the controller
	Bank      int
	Row       int
	Write     bool
}

// RequestResult describes how the engine serviced one request.
type RequestResult struct {
	StartNS  float64 // when the first command for the request issued
	FinishNS float64 // when the data burst completed
	RowHit   bool
}

// EngineStats summarizes one engine run.
type EngineStats struct {
	Counts       Counts
	Requests     int // cache-line requests serviced
	RowHits      int
	RowMisses    int
	TotalNS      float64 // time from first arrival to last burst completion
	SumLatencyNS float64
	MaxLatencyNS float64
}

// AvgLatencyNS returns the mean request latency.
func (s EngineStats) AvgLatencyNS() float64 {
	if s.Requests == 0 {
		return 0
	}
	return s.SumLatencyNS / float64(s.Requests)
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (s EngineStats) RowHitRate() float64 {
	n := s.RowHits + s.RowMisses
	if n == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(n)
}

// Engine is a command-level model of the device: per-bank open-row state,
// fixed-ns core timing constraints, a shared data bus, open-page policy, and
// periodic all-bank refresh. Requests are serviced in arrival order (FCFS),
// which matches the paper's single-core traffic where the controller queue
// rarely reorders.
//
// The engine exists to validate the closed-form latency model used by
// internal/memctrl: integration tests drive both with the same synthetic
// streams and require agreement on average latency within tolerance.
type Engine struct {
	dev    Device
	clock  freq.MHz
	timing Timing

	bankOpenRow  []int     // -1 = closed
	bankReadyNS  []float64 // earliest next command per bank
	bankOpenedNS []float64 // time the open row was activated (for tRAS)
	busFreeNS    float64
	nextRefresh  float64
	stats        EngineStats
	started      bool
	firstArrival float64
	lastFinish   float64
}

// NewEngine builds an engine for dev at the given clock.
func NewEngine(dev Device, clock freq.MHz) (*Engine, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if err := dev.CheckClock(clock); err != nil {
		return nil, err
	}
	timing, err := dev.TimingAt(clock)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		dev:          dev,
		clock:        clock,
		timing:       timing,
		bankOpenRow:  make([]int, dev.Banks),
		bankReadyNS:  make([]float64, dev.Banks),
		bankOpenedNS: make([]float64, dev.Banks),
		nextRefresh:  dev.TREFIns,
	}
	for i := range e.bankOpenRow {
		e.bankOpenRow[i] = -1
	}
	return e, nil
}

// cycles converts a cycle count to nanoseconds at the engine clock.
func (e *Engine) cycles(n int) float64 { return float64(n) * e.clock.PeriodNS() }

// Service processes one request and returns its result. Requests must be
// presented in non-decreasing arrival order.
func (e *Engine) Service(req Request) (RequestResult, error) {
	if req.Bank < 0 || req.Bank >= e.dev.Banks {
		return RequestResult{}, fmt.Errorf("dram: bank %d out of range [0,%d)", req.Bank, e.dev.Banks)
	}
	if req.Row < 0 {
		return RequestResult{}, fmt.Errorf("dram: negative row %d", req.Row)
	}
	if !e.started {
		e.started = true
		e.firstArrival = req.ArrivalNS
	}

	start := req.ArrivalNS
	if e.bankReadyNS[req.Bank] > start {
		start = e.bankReadyNS[req.Bank]
	}

	// Periodic all-bank refresh: if a refresh deadline passed before this
	// command could issue, the whole device stalls for tRFC.
	for e.nextRefresh <= start {
		refreshEnd := e.nextRefresh + float64(e.timing.TRFC)*e.clock.PeriodNS()
		if start < refreshEnd {
			start = refreshEnd
		}
		for b := range e.bankOpenRow {
			e.bankOpenRow[b] = -1 // all-bank refresh closes rows
			if e.bankReadyNS[b] < refreshEnd {
				e.bankReadyNS[b] = refreshEnd
			}
		}
		e.stats.Counts.Refreshes++
		e.nextRefresh += e.dev.TREFIns
	}

	rowHit := e.bankOpenRow[req.Bank] == req.Row
	var cmdNS float64
	switch {
	case rowHit:
		cmdNS = e.cycles(e.timing.TCAS)
		e.stats.RowHits++
	case e.bankOpenRow[req.Bank] >= 0:
		// Conflict: precharge (respecting tRAS of the open row), activate,
		// then column access.
		openFor := start - e.bankOpenedNS[req.Bank]
		minOpen := e.cycles(e.timing.TRAS)
		if openFor < minOpen {
			start += minOpen - openFor
		}
		cmdNS = e.cycles(e.timing.TRP + e.timing.TRCD + e.timing.TCAS)
		e.stats.Counts.Activates++
		e.stats.RowMisses++
		e.bankOpenedNS[req.Bank] = start + e.cycles(e.timing.TRP)
	default:
		// Bank closed (cold or post-refresh): activate then column access.
		cmdNS = e.cycles(e.timing.TRCD + e.timing.TCAS)
		e.stats.Counts.Activates++
		e.stats.RowMisses++
		e.bankOpenedNS[req.Bank] = start
	}
	e.bankOpenRow[req.Bank] = req.Row

	// The data transfer needs the shared bus for one full cache line
	// (LineBursts bursts); transfers are serialized on the bus.
	burstStart := start + cmdNS
	if e.busFreeNS > burstStart {
		burstStart = e.busFreeNS
	}
	burstNS := e.cycles(e.timing.Burst * e.dev.LineBursts())
	finish := burstStart + burstNS
	e.busFreeNS = finish

	ready := finish
	if req.Write {
		ready += e.cycles(e.timing.TWR)
		e.stats.Counts.Writes += e.dev.LineBursts()
	} else {
		e.stats.Counts.Reads += e.dev.LineBursts()
	}
	e.bankReadyNS[req.Bank] = ready

	e.stats.Requests++
	lat := finish - req.ArrivalNS
	e.stats.SumLatencyNS += lat
	if lat > e.stats.MaxLatencyNS {
		e.stats.MaxLatencyNS = lat
	}
	if finish > e.lastFinish {
		e.lastFinish = finish
	}
	e.stats.TotalNS = e.lastFinish - e.firstArrival
	return RequestResult{StartNS: start, FinishNS: finish, RowHit: rowHit}, nil
}

// ServiceAll runs a whole request stream and returns the final stats.
func (e *Engine) ServiceAll(reqs []Request) (EngineStats, error) {
	for i, r := range reqs {
		if i > 0 && r.ArrivalNS < reqs[i-1].ArrivalNS {
			return EngineStats{}, fmt.Errorf("dram: request %d arrives before its predecessor", i)
		}
		if _, err := e.Service(r); err != nil {
			return EngineStats{}, fmt.Errorf("dram: request %d: %w", i, err)
		}
	}
	return e.stats, nil
}

// Stats returns the statistics accumulated so far.
func (e *Engine) Stats() EngineStats { return e.stats }
