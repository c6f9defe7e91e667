package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples the way the ledger prints
// them: the reported value — the median, unless said otherwise — with
// the quartiles and sample count beside it, and, given enough samples,
// the highest percentile that still has at least ten samples beyond it.
type summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// P is the percentile level PValue was taken at; 0 when fewer than
	// twenty samples leave no percentile with ten samples beyond it.
	P      float64 `json:"p,omitempty"`
	PValue float64 `json:"p_value,omitempty"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample, or the mean of the middle two; 0
// for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// trimmedMean is the mean of xs without its smallest and its largest
// sample (the plain mean for fewer than three samples).
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method) — the
// contract's spread is computed with that function, so -compare must
// agree with it to the last digit. One sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	const n = 4
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// percentileLadder lists the percentiles a report may quote, in tenths
// of a percent so that "ten samples beyond" is exact integer arithmetic.
var percentileLadder = []int{500, 750, 900, 950, 990, 999}

// highestPercentile returns the highest ladder percentile that has at
// least ten of n samples beyond it, or 0 when none has.
func highestPercentile(n int) float64 {
	best := 0
	for _, p := range percentileLadder {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	sum := summary{Value: median(xs), Q1: q1, Q3: q3, N: len(xs)}
	if p := highestPercentile(len(xs)); p > 50 {
		sum.P, sum.PValue = p, percentile(xs, p)
	}
	return sum
}

// spread is the distance between the quartiles as a share of the
// median — the contract's measure of run-to-run noise.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Value)
}

// Verdicts of one metric compared across two sets of runs.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening returns by what share of a's median b's median is worse
// (negative when b is better).
func worsening(better string, a, b summary) float64 {
	if a.Value == 0 {
		return 0
	}
	d := (b.Value - a.Value) / math.Abs(a.Value)
	if better == "higher" {
		d = -d
	}
	return d
}

// judge applies a metric's bound to two sets of runs: a spread wider
// than the bound on either side cannot resolve a change of that size
// ("unresolved", never "unchanged"); otherwise b is "worse" when its
// median is worse than a's by more than the bound.
func judge(better string, bound float64, a, b summary) string {
	if a.spread() > bound || b.spread() > bound {
		return verdictUnresolved
	}
	if worsening(better, a, b) > bound {
		return verdictWorse
	}
	return verdictOK
}
