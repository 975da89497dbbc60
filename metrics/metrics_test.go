package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

// summaryOf records xs in a fresh Summary.
func summaryOf(xs ...float64) Summary {
	var s Summary
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func TestSummaryBasics(t *testing.T) {
	s := summaryOf(2, 4, 4, 4, 5, 5, 7, 9)
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// sample variance of this classic set is 32/7
	if math.Abs(s.Var()-32.0/7) > 1e-9 {
		t.Errorf("Var = %v, want %v", s.Var(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.Std() != 0 || s.CV() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestSummaryCV(t *testing.T) {
	s := summaryOf(10, 10, 10, 10)
	if s.CV() != 0 {
		t.Errorf("CV of constant data = %v, want 0", s.CV())
	}
}

func TestSummaryMatchesBatch(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := summaryOf(clean...)
		return math.Abs(s.Mean()-Mean(clean)) < 1e-6*(1+math.Abs(s.Mean()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	// interpolation
	if got := Percentile([]float64{0, 10}, 0.5); math.Abs(got-5) > 1e-12 {
		t.Errorf("interpolated median = %v, want 5", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty percentile should be NaN")
	}
	// out-of-range p clamps
	if got := Percentile(xs, -1); got != 1 {
		t.Errorf("Percentile(-1) = %v, want 1", got)
	}
	if got := Percentile(xs, 2); got != 5 {
		t.Errorf("Percentile(2) = %v, want 5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{1, 1, 1, 1}); math.Abs(g) > 1e-12 {
		t.Errorf("Gini(equal) = %v, want 0", g)
	}
	// All mass on one holder of n: Gini = (n-1)/n
	if g := Gini([]float64{0, 0, 0, 10}); math.Abs(g-0.75) > 1e-12 {
		t.Errorf("Gini(concentrated) = %v, want 0.75", g)
	}
	if g := Gini([]float64{5}); g != 0 {
		t.Errorf("Gini(single) = %v, want 0", g)
	}
	if g := Gini([]float64{0, 0}); g != 0 {
		t.Errorf("Gini(zeros) = %v, want 0", g)
	}
}

func TestGiniRange(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			// Keep magnitudes small enough that the weighted cumulative
			// sum cannot overflow to +Inf.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, math.Abs(x))
			}
		}
		g := Gini(clean)
		return g >= -1e-9 && g <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChiSquareUniform(t *testing.T) {
	if chi := ChiSquareUniform([]int{10, 10, 10, 10}); chi != 0 {
		t.Errorf("chi2(uniform) = %v, want 0", chi)
	}
	if chi := ChiSquareUniform([]int{40, 0, 0, 0}); math.Abs(chi-120) > 1e-9 {
		t.Errorf("chi2(concentrated) = %v, want 120", chi)
	}
	if chi := ChiSquareUniform(nil); chi != 0 {
		t.Errorf("chi2(empty) = %v", chi)
	}
	if chi := ChiSquareUniform([]int{0, 0}); chi != 0 {
		t.Errorf("chi2(zero counts) = %v", chi)
	}
}

func TestFitLineExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 2x + 3
	fit := FitLine(x, y)
	if math.Abs(fit.Slope-2) > 1e-9 || math.Abs(fit.Intercept-3) > 1e-9 {
		t.Errorf("fit = %+v, want slope 2 intercept 3", fit)
	}
	if math.Abs(fit.R2-1) > 1e-9 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLineNoise(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9} // ~2x
	fit := FitLine(x, y)
	if math.Abs(fit.Slope-2) > 0.1 {
		t.Errorf("slope = %v, want ~2", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %v, want >0.99", fit.R2)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if fit := FitLine([]float64{1}, []float64{1}); fit.Slope != 0 {
		t.Error("single-point fit should be zero")
	}
	if fit := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); fit.Slope != 0 {
		t.Error("vertical data fit should be zero")
	}
}

func TestFitLinePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FitLine length mismatch did not panic")
		}
	}()
	FitLine([]float64{1, 2}, []float64{1})
}
