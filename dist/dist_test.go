package dist

import (
	"math"
	"testing"

	"smallworld/keyspace"
	"smallworld/xrand"
)

func allDists() []Distribution {
	return []Distribution{
		Uniform{},
		NewPower(0.5),
		NewPower(0.85),
		NewTruncExp(6),
		NewTruncNormal(0.3, 0.15),
		NewZipf(64, 1.0),
		NewMixture(
			[]Distribution{NewTruncNormal(0.2, 0.05), NewTruncNormal(0.7, 0.1)},
			[]float64{1, 2},
		),
		Estimate(SampleN(NewPower(0.7), xrand.New(1), 5000), 32),
	}
}

func TestCDFBoundsAndMonotonicity(t *testing.T) {
	for _, d := range allDists() {
		if c := d.CDF(0); c < 0 || c > 1e-12 {
			t.Errorf("%s: CDF(0) = %v, want 0", d.Name(), c)
		}
		if c := d.CDF(1); math.Abs(c-1) > 1e-12 {
			t.Errorf("%s: CDF(1) = %v, want 1", d.Name(), c)
		}
		prev := -1.0
		for i := 0; i <= 1000; i++ {
			x := float64(i) / 1000
			c := d.CDF(x)
			if c < prev-1e-15 {
				t.Fatalf("%s: CDF not monotone at %v: %v < %v", d.Name(), x, c, prev)
			}
			if c < 0 || c > 1 {
				t.Fatalf("%s: CDF(%v) = %v outside [0,1]", d.Name(), x, c)
			}
			prev = c
		}
	}
}

func TestQuantileInvertsCDF(t *testing.T) {
	for _, d := range allDists() {
		for i := 1; i < 200; i++ {
			q := float64(i) / 200
			x := d.Quantile(q)
			if x < 0 || x > 1 {
				t.Fatalf("%s: Quantile(%v) = %v outside [0,1]", d.Name(), q, x)
			}
			if got := d.CDF(x); math.Abs(got-q) > 1e-9 {
				t.Fatalf("%s: CDF(Quantile(%v)) = %v", d.Name(), q, got)
			}
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	for _, d := range allDists() {
		prev := -1.0
		for i := 0; i <= 500; i++ {
			x := d.Quantile(float64(i) / 500)
			if x < prev-1e-15 {
				t.Fatalf("%s: Quantile not monotone at %v", d.Name(), float64(i)/500)
			}
			prev = x
		}
	}
}

func TestSampleMatchesCDF(t *testing.T) {
	// Empirical CDF of 20k samples must track the analytic CDF
	// (Dvoretzky–Kiefer–Wolfowitz: sup gap ~ sqrt(ln(2/a)/2n) ≈ 0.01).
	for _, d := range allDists() {
		r := xrand.New(7)
		const n = 20000
		ks := SampleN(d, r, n)
		for _, x := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			var below int
			for _, k := range ks {
				if float64(k) < x {
					below++
				}
			}
			emp := float64(below) / n
			if diff := math.Abs(emp - d.CDF(x)); diff > 0.02 {
				t.Errorf("%s: empirical CDF(%v) = %v vs analytic %v", d.Name(), x, emp, d.CDF(x))
			}
		}
	}
}

func TestPowerSkewsLow(t *testing.T) {
	d := NewPower(0.8)
	if d.CDF(0.1) < 0.5 {
		t.Errorf("power(0.8) should put >50%% of mass below 0.1, got %v", d.CDF(0.1))
	}
}

func TestTruncExpShape(t *testing.T) {
	d := NewTruncExp(6)
	// Median of the truncated exponential with rate 6.
	want := -math.Log1p(-0.5*(1-math.Exp(-6))) / 6
	if got := d.Quantile(0.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("truncexp median = %v, want %v", got, want)
	}
}

func TestTruncNormalSymmetry(t *testing.T) {
	d := NewTruncNormal(0.5, 0.1)
	if m := d.Quantile(0.5); math.Abs(m-0.5) > 1e-9 {
		t.Errorf("centered truncnormal median = %v, want 0.5", m)
	}
	if c := d.CDF(0.4) + (1 - d.CDF(0.6)); math.Abs(c-2*d.CDF(0.4)) > 1e-9 {
		t.Error("centered truncnormal tails not symmetric")
	}
}

func TestZipfBinOrdering(t *testing.T) {
	d := NewZipf(16, 1.2)
	prev := math.Inf(1)
	for i := 0; i < 16; i++ {
		mass := d.CDF(float64(i+1)/16) - d.CDF(float64(i)/16)
		if mass > prev+1e-12 {
			t.Fatalf("zipf bin %d mass %v exceeds previous %v", i, mass, prev)
		}
		prev = mass
	}
}

func TestMixtureIsConvexCombination(t *testing.T) {
	a, b := NewTruncNormal(0.2, 0.05), NewTruncNormal(0.7, 0.1)
	m := NewMixture([]Distribution{a, b}, []float64{1, 3})
	for _, x := range []float64{0.1, 0.3, 0.6, 0.9} {
		want := 0.25*a.CDF(x) + 0.75*b.CDF(x)
		if got := m.CDF(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("mixture CDF(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestEstimateRecoversDensity(t *testing.T) {
	d := NewTruncExp(5)
	sample := SampleN(d, xrand.New(9), 50000)
	est := Estimate(sample, 64)
	for _, x := range []float64{0.1, 0.3, 0.5, 0.8} {
		if diff := math.Abs(est.CDF(x) - d.CDF(x)); diff > 0.02 {
			t.Errorf("estimated CDF(%v) off by %v", x, diff)
		}
	}
}

func TestEstimateEmptySampleIsUniform(t *testing.T) {
	est := Estimate(nil, 16)
	for _, x := range []float64{0.25, 0.5, 0.75} {
		if math.Abs(est.CDF(x)-x) > 1e-12 {
			t.Errorf("empty-sample estimate CDF(%v) = %v, want uniform", x, est.CDF(x))
		}
	}
}

func TestEstimateClampsOutOfRangeKeys(t *testing.T) {
	est := Estimate([]keyspace.Key{0, 0.5, keyspace.Key(math.Nextafter(1, 0))}, 4)
	if est.k != 4 {
		t.Errorf("bins = %d", est.k)
	}
	if q := est.Quantile(1); q > 1 {
		t.Errorf("Quantile(1) = %v", q)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewPower(1) },
		func() { NewPower(-0.1) },
		func() { NewTruncExp(0) },
		func() { NewTruncNormal(0.5, 0) },
		func() { NewZipf(0, 1) },
		func() { NewZipf(4, -1) },
		func() { NewMixture(nil, nil) },
		func() { NewMixture([]Distribution{Uniform{}}, []float64{0}) },
		func() { NewPiecewise(nil) },
		func() { NewPiecewise([]float64{0, 0}) },
		func() { Estimate(nil, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestNames(t *testing.T) {
	for _, d := range allDists() {
		if d.Name() == "" {
			t.Error("empty distribution name")
		}
	}
	if NewPower(0.8).Name() != "power(0.8)" {
		t.Errorf("power name = %q", NewPower(0.8).Name())
	}
	if NewZipf(256, 1).Name() != "zipf(256,1)" {
		t.Errorf("zipf name = %q", NewZipf(256, 1).Name())
	}
}
