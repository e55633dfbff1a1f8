// Package stats provides the small statistical summaries the paper's
// figures need: five-number box-plot summaries, means, and quantiles.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is the five-number summary used for box plots (Figure 9), plus
// the mean and count.
type Summary struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// Summarize computes the five-number summary of xs. It returns an error on
// an empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, fmt.Errorf("stats: empty input")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return Summary{}, fmt.Errorf("stats: non-finite value %v", x)
		}
		sum += x
	}
	return Summary{
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   sum / float64(len(sorted)),
		N:      len(sorted),
	}, nil
}

// SummarizeInts is Summarize for integer data such as region lengths.
func SummarizeInts(xs []int) (Summary, error) {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// Quantile returns the q-quantile of xs (0 <= q <= 1) using linear
// interpolation between order statistics.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: empty input")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

// quantileSorted interpolates the q-quantile of an already-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean; zero for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
