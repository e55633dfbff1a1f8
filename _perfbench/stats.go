package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// A p99 therefore needs at least 1000 samples; with fewer, the record marks
// the percentile unsupported instead of presenting an extreme order
// statistic as a tail estimate.
const minBeyond = 10

// Pct is one reported percentile with the sample count behind it.
type Pct struct {
	Q         float64 `json:"q"`
	Value     float64 `json:"value"`
	N         int     `json:"n"`
	Beyond    int     `json:"beyond"`
	Supported bool    `json:"supported"`
}

// percentile returns the nearest-rank q-quantile of xs (xs is not
// modified). The nearest rank is ceil(q·n); the samples beyond it are the
// n−rank larger ones, and the percentile is supported when there are at
// least minBeyond of them (for the median, at least one sample suffices).
func percentile(xs []float64, q float64) Pct {
	p := Pct{Q: q, N: len(xs)}
	if len(xs) == 0 {
		return p
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	p.Value = s[rank-1]
	p.Beyond = len(s) - rank
	p.Supported = p.Beyond >= minBeyond || (q <= 0.5 && len(s) > 0)
	return p
}

// highestSupported returns the highest of the given quantiles that n samples
// support, or 0 when none is.
func highestSupported(n int, qs ...float64) float64 {
	best := 0.0
	for _, q := range qs {
		rank := int(math.Ceil(q * float64(n)))
		if n > 0 && n-rank >= minBeyond && q > best {
			best = q
		}
	}
	return best
}

// median is the nearest-rank median, 0 for no samples.
func median(xs []float64) float64 { return percentile(xs, 0.5).Value }

// exceedances counts samples strictly above limit.
func exceedances(xs []float64, limit float64) int {
	n := 0
	for _, x := range xs {
		if x > limit {
			n++
		}
	}
	return n
}

// meetsLimit reports whether the empirical q-quantile of xs is within limit:
// no more than floor((1−q)·n) samples may exceed it. Unlike percentile it
// needs no minimum sample count, so a short ladder rung can still be judged.
func meetsLimit(xs []float64, q, limit float64) bool {
	allowed := int(math.Floor((1 - q) * float64(len(xs))))
	return exceedances(xs, limit) <= allowed
}

// stolenShare is the share of the time the CPUs were runnable between two
// counter samples that the hypervisor gave to someone else:
// Δsteal ÷ (Δbusy + Δsteal), 0 when they were never runnable.
func stolenShare(a, b cpuTicks) float64 {
	steal := float64(b.steal - a.steal)
	return ratio(steal, float64(b.busy-a.busy)+steal)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
