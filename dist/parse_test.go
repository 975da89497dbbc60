package dist

import (
	"math"
	"testing"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		in   string
		name string
	}{
		{"uniform", "uniform"},
		{"power:0.8", "power(0.8)"},
		{"exp:8", "truncexp(8)"},
		{"normal:0.5,0.1", "truncnormal(0.5,0.1)"},
		{"zipf:256,1", "zipf(256,1)"},
	}
	for _, c := range cases {
		d, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if d.Name() != c.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", c.in, d.Name(), c.name)
		}
		if cdf := d.CDF(1); math.Abs(cdf-1) > 1e-12 {
			t.Errorf("Parse(%q).CDF(1) = %v, want 1", c.in, cdf)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	for _, in := range []string{
		"", "nope", "power:", "power:1", "power:NaN", "exp:0", "exp:-1",
		"normal:0.5", "normal:0.5,0", "zipf:0,1", "zipf:1,-1", "zipf:1,NaN",
		// Non-finite parameters, a truncated normal with no mass in
		// [0,1), and a zipf past the bin cap.
		"normal:5,0.01", "normal:0.5,Inf", "normal:-Inf,1", "normal:NaN,0.1",
		"exp:Inf", "zipf:65537,1",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted, want error", in)
		}
	}
}

// FuzzParse checks that Parse never panics and that every spec it
// accepts is a distribution on [0,1): CDF(0) = 0, CDF(1) = 1 within
// 1e-12, and Quantile(q) in [0,1] for five q. The seed corpus in
// testdata/fuzz/FuzzParse holds the valid specs of TestParseValid and
// the specs that once panicked or parsed to a degenerate distribution.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		d, err := Parse(spec)
		if err != nil {
			return
		}
		if c := d.CDF(0); c != 0 {
			t.Fatalf("Parse(%q).CDF(0) = %v", spec, c)
		}
		if c := d.CDF(1); !(math.Abs(c-1) <= 1e-12) {
			t.Fatalf("Parse(%q).CDF(1) = %v", spec, c)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			if x := d.Quantile(q); !(x >= 0 && x <= 1) {
				t.Fatalf("Parse(%q).Quantile(%v) = %v", spec, q, x)
			}
		}
	})
}
