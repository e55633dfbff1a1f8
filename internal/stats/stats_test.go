package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownData(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 || s.N != 5 {
		t.Errorf("summary = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 2, 4", s.Q1, s.Q3)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 7 || s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 || s.Max != 7 {
		t.Errorf("singleton summary = %+v", s)
	}
}

func TestSummarizeErrors(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Summarize([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := Summarize([]float64{1, math.Inf(1)}); err == nil {
		t.Error("Inf accepted")
	}
}

func TestSummarizeInts(t *testing.T) {
	s, err := SummarizeInts([]int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if s.Median != 4 || s.Mean != 4 {
		t.Errorf("summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", c.q, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("out-of-range q accepted")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			if !math.IsNaN(r) && !math.IsInf(r, 0) {
				xs = append(xs, math.Mod(r, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 &&
			s.Q3 <= s.Max && s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
