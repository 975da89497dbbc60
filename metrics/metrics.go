// Package metrics provides the statistical helpers used by the experiment
// harness: streaming summaries, percentiles, histogram quantiles, load-imbalance
// measures (Gini, coefficient of variation), least-squares fits for
// scaling laws, and a chi-square distance for partition-occupancy tests.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates count, mean, variance (Welford), min and max of a
// stream of observations. The zero value is ready to use.
type Summary struct {
	n         int
	mean, m2  float64
	min, max  float64
	populated bool
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if !s.populated || x < s.min {
		s.min = x
	}
	if !s.populated || x > s.max {
		s.max = x
	}
	s.populated = true
}

// N returns the number of observations.
func (s Summary) N() int { return s.n }

// Mean returns the arithmetic mean (0 when empty).
func (s Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 for fewer than 2 samples).
func (s Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 when empty).
func (s Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s Summary) Max() float64 { return s.max }

// CV returns the coefficient of variation std/mean, the paper-adjacent
// load-imbalance measure; 0 when the mean is 0.
func (s Summary) CV() float64 {
	if s.mean == 0 {
		return 0
	}
	return s.Std() / s.mean
}

// String formats the summary for experiment tables.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.0f max=%.0f", s.n, s.Mean(), s.Std(), s.Min(), s.Max())
}

// Percentile returns the p-quantile (p in [0,1]) of xs using linear
// interpolation between order statistics. xs need not be sorted; it is
// copied. Returns NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile for input that is already sorted
// ascending: no copy, no sort. Callers that need several quantiles of
// the same sample (the simulator's per-window summaries) sort once into
// a reusable scratch buffer and read them all from it without
// allocating. Returns NaN for empty input.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Gini returns the Gini coefficient of the non-negative values xs:
// 0 = perfectly balanced, →1 = maximally concentrated. It returns 0 for
// fewer than two values or an all-zero vector.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, x := range sorted {
		cum += float64(i+1) * x
		total += x
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - float64(n+1)/float64(n)
}

// ChiSquareUniform returns the chi-square statistic of observed counts
// against the uniform expectation. Smaller is more uniform. It returns 0
// for empty or all-zero counts.
func ChiSquareUniform(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	var total int
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	expected := float64(total) / float64(len(counts))
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	return chi2
}

// LinFit is an ordinary-least-squares fit y = Slope*x + Intercept.
type LinFit struct {
	Slope, Intercept, R2 float64
}

// FitLine computes the OLS line through (x[i], y[i]). It panics if the
// slices differ in length and returns a zero fit for fewer than 2 points
// or degenerate x.
func FitLine(x, y []float64) LinFit {
	if len(x) != len(y) {
		panic("metrics: FitLine input length mismatch")
	}
	n := float64(len(x))
	if len(x) < 2 {
		return LinFit{}
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinFit{}
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// R² = 1 - SSres/SStot
	ssTot := syy - sy*sy/n
	var ssRes float64
	for i := range x {
		r := y[i] - (slope*x[i] + intercept)
		ssRes += r * r
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinFit{Slope: slope, Intercept: intercept, R2: r2}
}
