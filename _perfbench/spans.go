package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// selfTimeTolerance bounds |Σ self − Σ root| / Σ root. Self times of
// nested, non-overlapping spans sum to the root exactly; the slack covers
// children that overlap each other (two coalesced flights under one
// handler, say), whose self times are counted once per child.
const selfTimeTolerance = 0.02

// Span is one traced interval at a layer boundary. Spans of one request (or
// one characterize pass) share Req; Parent is filled in when the tree is
// assembled, from containment within the request.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Node   int    `json:"node"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory while a traced phase runs. It is safe for
// concurrent use; the zero value is not, use newTracer.
type Tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// at converts a wall time to the tracer's clock (monotonic readings).
func (t *Tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *Tracer) now() int64 { return t.at(time.Now()) }

func (t *Tracer) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *Tracer) take() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// buildTrees assigns IDs and parents: within each request, a span's parent
// is the innermost earlier-starting span still open at its start, except
// that a span never nests in one of the same layer and name — two such
// spans that overlap (two flights under one handler) are siblings.
func buildTrees(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Req != b.Req {
			return a.Req < b.Req
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	var stack []int
	for i := range spans {
		spans[i].ID = i
		if i == 0 || spans[i].Req != spans[i-1].Req {
			stack = stack[:0]
		}
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.End > spans[i].Start && (top.Layer != spans[i].Layer || top.Name != spans[i].Name) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		spans[i].Parent = -1
		if len(stack) > 0 {
			spans[i].Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
}

// SelfTimes is the per-layer self time of a set of span trees.
type SelfTimes struct {
	Layer map[string]int64 // ns of self time per layer
	Root  int64            // ns covered by root spans
	Sum   int64            // Σ Layer
}

// SumError is |Σ self − Σ root| / Σ root.
func (s SelfTimes) SumError() float64 {
	if s.Root == 0 {
		return 0
	}
	d := s.Sum - s.Root
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(s.Root)
}

// selfTimes computes each span's duration minus the union of its children's
// intervals clipped to it, summed per layer. spans must have been through
// buildTrees.
func selfTimes(spans []Span) SelfTimes {
	children := make(map[int][]Span)
	st := SelfTimes{Layer: make(map[string]int64)}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			st.Root += s.dur()
		}
	}
	for _, s := range spans {
		self := s.dur() - covered(s, children[s.ID])
		st.Layer[s.Layer] += self
		st.Sum += self
	}
	return st
}

// covered returns the length of the union of the children's intervals
// clipped to the parent.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
