package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child stream must differ from the parent's continued output.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split stream matched parent %d/100 times", same)
	}
	// Splitting is itself deterministic.
	p1, p2 := New(7), New(7)
	c1, c2 := p1.Split(), p2.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("splits of identical parents diverged")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		if f := r.Float64Open(); f <= 0 || f >= 1 {
			t.Fatalf("Float64Open() = %v out of (0,1)", f)
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("Intn bucket %d = %d, want ~%v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(17)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exp mean = %v, want ~1", mean)
	}
}

func TestPerm(t *testing.T) {
	r := New(23)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestLogUniformRangeAndShape(t *testing.T) {
	r := New(29)
	lo, hi := 0.001, 0.5
	const n = 200000
	// Under density ∝ 1/x, the CDF is ln(x/lo)/ln(hi/lo): the fraction of
	// samples below sqrt(lo*hi) (log-midpoint) should be ~1/2.
	mid := math.Sqrt(lo * hi)
	below := 0
	for i := 0; i < n; i++ {
		x := r.LogUniform(lo, hi)
		if x < lo || x > hi {
			t.Fatalf("LogUniform out of range: %v", x)
		}
		if x < mid {
			below++
		}
	}
	if frac := float64(below) / n; math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fraction below log-midpoint = %v, want ~0.5", frac)
	}
}

func TestLogUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LogUniform(0, 1) did not panic")
		}
	}()
	New(1).LogUniform(0, 1)
}

func TestBool(t *testing.T) {
	r := New(31)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}

func TestShuffleDeterministic(t *testing.T) {
	a := New(43).Perm(50)
	b := New(43).Perm(50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Perm not deterministic for equal seeds")
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkLogUniform(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.LogUniform(1e-4, 0.5)
	}
}
