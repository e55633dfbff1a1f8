package dram

import (
	"fmt"

	"mcdvfs/internal/freq"
)

// SchedulerPolicy selects how the command engine orders waiting requests.
type SchedulerPolicy int

const (
	// FCFS services requests strictly in arrival order.
	FCFS SchedulerPolicy = iota
	// FRFCFS (first-ready, first-come-first-served) prefers row hits over
	// older row misses within a bounded reorder window — the standard
	// open-page controller optimization.
	FRFCFS
)

// String names the policy.
func (p SchedulerPolicy) String() string {
	if p == FRFCFS {
		return "fr-fcfs"
	}
	return "fcfs"
}

// ScheduledEngine wraps the command-level Engine with a request queue and
// a scheduling policy. Requests are enqueued in arrival order; Drain
// services them respecting the policy: FR-FCFS may promote a request that
// hits the currently open row of its bank ahead of older conflicting
// requests, as long as both are already waiting (a request can never be
// serviced before it arrives).
type ScheduledEngine struct {
	eng    *Engine
	policy SchedulerPolicy
	window int
	queue  []Request
}

// NewScheduledEngine builds a scheduled engine. window bounds how far
// FR-FCFS may look past the oldest request (typical controllers: 8-32
// entries); it is ignored for FCFS.
func NewScheduledEngine(dev Device, clock freq.MHz, policy SchedulerPolicy, window int) (*ScheduledEngine, error) {
	if policy != FCFS && policy != FRFCFS {
		return nil, fmt.Errorf("dram: unknown scheduler policy %d", policy)
	}
	if policy == FRFCFS && window < 1 {
		return nil, fmt.Errorf("dram: FR-FCFS window %d < 1", window)
	}
	eng, err := NewEngine(dev, clock)
	if err != nil {
		return nil, err
	}
	return &ScheduledEngine{eng: eng, policy: policy, window: window}, nil
}

// Enqueue adds requests to the queue. Arrival order within the queue is
// preserved; arrivals must be non-decreasing.
func (s *ScheduledEngine) Enqueue(reqs ...Request) error {
	for _, r := range reqs {
		if n := len(s.queue); n > 0 && r.ArrivalNS < s.queue[n-1].ArrivalNS {
			return fmt.Errorf("dram: enqueue out of arrival order")
		}
		s.queue = append(s.queue, r)
	}
	return nil
}

// Drain services every queued request under the policy and returns the
// engine statistics.
func (s *ScheduledEngine) Drain() (EngineStats, error) {
	for len(s.queue) > 0 {
		idx := s.pickNext()
		req := s.queue[idx]
		if _, err := s.eng.Service(req); err != nil {
			return EngineStats{}, err
		}
		s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
	}
	return s.eng.Stats(), nil
}

// pickNext returns the queue index to service next. A request may only be
// promoted if it has already arrived by the time the controller makes the
// decision (no time travel): the decision time is when the previous
// command stream frees up, or the oldest request's arrival, whichever is
// later.
func (s *ScheduledEngine) pickNext() int {
	if s.policy == FCFS || len(s.queue) == 1 {
		return 0
	}
	decisionNS := s.queue[0].ArrivalNS
	if s.eng.lastFinish > decisionNS {
		decisionNS = s.eng.lastFinish
	}
	limit := s.window
	if limit > len(s.queue) {
		limit = len(s.queue)
	}
	// First-ready: the oldest waiting request within the window whose
	// bank has its row open. Fall back to the oldest request.
	for i := 0; i < limit; i++ {
		r := s.queue[i]
		if r.ArrivalNS > decisionNS {
			break // later entries have not arrived yet either
		}
		if s.eng.bankOpenRow[r.Bank] == r.Row {
			return i
		}
	}
	return 0
}

// Stats exposes the underlying engine statistics.
func (s *ScheduledEngine) Stats() EngineStats { return s.eng.Stats() }
