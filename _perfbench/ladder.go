package main

import "math"

// The rate ladder behind max_rate_rps: rung i runs at nominal·ladderStep^i
// for the workload's rung duration. The top rung (6.7× nominal) lies above
// every workload's saturation point on the recording host.
const (
	ladderStep  = 1.10
	ladderRungs = 20 // rungs above the nominal rate; 5 bisection probes
)

// Rung is one judged ladder probe.
type Rung struct {
	Index       int     `json:"index"`
	Rate        float64 `json:"rate_rps"`
	Requests    int     `json:"requests"`
	OptimalN    int     `json:"optimal_samples"`
	Exceed      int     `json:"over_limit"`
	Failed      int     `json:"failed"`
	BacklogGrew bool    `json:"backlog_grew"`
	Pass        bool    `json:"pass"`
}

func rungRate(nominal float64, i int) float64 { return nominal * math.Pow(ladderStep, float64(i)) }

// judgeRung applies the three conditions: the /v1/optimal p99 meets the
// latency limit, nothing failed, and the backlog did not grow.
func judgeRung(i int, rate float64, run PhaseRun, limitMS float64) Rung {
	opt := run.latencies(KOptimal)
	r := Rung{
		Index:       i,
		Rate:        rate,
		Requests:    len(run.Results),
		OptimalN:    len(opt),
		Exceed:      exceedances(opt, limitMS),
		Failed:      run.failed(),
		BacklogGrew: backlogGrows(run.Backlog, len(run.Results)),
	}
	r.Pass = r.Failed == 0 && !r.BacklogGrew && len(opt) > 0 && meetsLimit(opt, 0.99, limitMS)
	return r
}

// backlogGrows fits a least-squares line to the backlog samples of a rung
// that sent n requests and reports growth when the line rises by more than
// 5% of n (and at least 10 requests) over the rung: a sustainable rate
// holds the backlog level, fluctuating around a small mean, while an
// overload grows it in proportion to elapsed time.
func backlogGrows(samples []int, n int) bool {
	k := float64(len(samples))
	if k < 3 {
		return false
	}
	var sx, sy, sxx, sxy float64
	for i, y := range samples {
		x := float64(i)
		sx, sy, sxx, sxy = sx+x, sy+float64(y), sxx+x*x, sxy+x*float64(y)
	}
	slope := (k*sxy - sx*sy) / (k*sxx - sx*sx)
	return slope*(k-1) > max(0.05*float64(n), 10)
}

// searchLadder returns the highest rung in [0, rungs] that passes, probing
// by bisection and assuming rung 0 (the nominal phase) passes and that a
// rung above a failing one fails too. It calls probe log2(rungs+1) times.
func searchLadder(rungs int, probe func(i int) bool) int {
	lo, hi := 0, rungs+1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
