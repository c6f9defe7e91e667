package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

func TestTrimmedMeanDropsOneSampleAtEachEnd(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{2, 4}, 3},
		{[]float64{100, 2, 4, 0}, 3},
		{[]float64{14, 23, 14, 23, 14, 23, 500}, 19.4},
	} {
		if got := trimmedMean(tc.xs); !near(got, tc.want) {
			t.Errorf("trimmedMean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns; the contract computes its spreads with that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{10, 20, 30}, 10, 30},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSummarizeQuotesAPercentileOnlyWithEnoughSamples(t *testing.T) {
	few := summarize([]float64{1, 2, 3, 4})
	if few.P != 0 || few.N != 4 || few.Value != 2.5 {
		t.Errorf("summarize of 4 samples = %+v", few)
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	many := summarize(xs)
	if many.P != 90 || !near(many.PValue, 90) || many.Value != 50 {
		t.Errorf("summarize of 0..100 = %+v", many)
	}
}

func TestJudge(t *testing.T) {
	tight := func(m float64) summary { return summary{Value: m, Q1: m * 0.995, Q3: m * 1.005, N: 10} }
	wide := func(m float64) summary { return summary{Value: m, Q1: m * 0.9, Q3: m * 1.1, N: 10} }
	for _, tc := range []struct {
		name   string
		better string
		bound  float64
		a, b   summary
		want   string
	}{
		{"same", "lower", 0.1, tight(100), tight(100), verdictOK},
		{"slower within bound", "lower", 0.1, tight(100), tight(109), verdictOK},
		{"slower beyond bound", "lower", 0.1, tight(100), tight(111), verdictWorse},
		{"faster", "lower", 0.1, tight(100), tight(50), verdictOK},
		{"throughput down", "higher", 0.1, tight(100), tight(85), verdictWorse},
		{"throughput up", "higher", 0.1, tight(100), tight(150), verdictOK},
		{"noisy parent", "lower", 0.1, wide(100), tight(100), verdictUnresolved},
		{"noisy change hides a regression", "lower", 0.1, tight(100), wide(130), verdictUnresolved},
	} {
		if got := judge(tc.better, tc.bound, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: judge = %q, want %q", tc.name, got, tc.want)
		}
	}
	if w := worsening("higher", tight(100), tight(80)); !near(w, 0.2) {
		t.Errorf("worsening(higher, 100 -> 80) = %v, want 0.2", w)
	}
}
