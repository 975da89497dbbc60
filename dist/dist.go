// Package dist provides the identifier densities f over the unit key
// space [0,1) that drive every experiment: the uniform baseline, the
// skewed families the paper evaluates (power-law, truncated exponential,
// truncated normal, Zipf-over-bins, mixtures), and a histogram estimator
// for the Section 4.2 protocol in which peers learn f from observed
// identifiers.
//
// Every density exposes an exact CDF F and quantile map F^-1. The CDF is
// the normalisation map R -> R' at the heart of Theorem 2 (the image of a
// key under F is its position in the normalised space R'), and the
// quantile is both the sampling map (inverse-transform sampling) and the
// way the join protocol turns a drawn mass offset back into a key.
package dist

import (
	"fmt"
	"math"

	"smallworld/keyspace"
	"smallworld/xrand"
)

// Distribution is a probability density over the unit key space [0,1)
// with an exact distribution function and quantile map.
type Distribution interface {
	// CDF returns F(x) = ∫_0^x f, clamped to [0,1]. F is non-decreasing
	// with F(0) = 0 and F(1) = 1.
	CDF(x float64) float64
	// Quantile returns F^-1(q) for q in [0,1]; out-of-range arguments
	// clamp. It is the inverse of CDF up to floating-point rounding.
	Quantile(q float64) float64
	// Name returns a short identifier such as "power(0.8)", used in
	// experiment tables and benchmark names.
	Name() string
}

// Sample draws one key from d by inverse-transform sampling.
func Sample(d Distribution, r *xrand.Stream) keyspace.Key {
	return keyspace.Clamp(d.Quantile(r.Float64()))
}

// SampleN draws n keys from d.
func SampleN(d Distribution, r *xrand.Stream, n int) []keyspace.Key {
	ks := make([]keyspace.Key, n)
	for i := range ks {
		ks[i] = Sample(d, r)
	}
	return ks
}

func clamp01(x float64) float64 {
	switch {
	case math.IsNaN(x), x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}

// Uniform is the uniform density on [0,1): f(x) = 1.
type Uniform struct{}

// CDF returns x clamped to [0,1].
func (Uniform) CDF(x float64) float64 { return clamp01(x) }

// Quantile returns q clamped to [0,1].
func (Uniform) Quantile(q float64) float64 { return clamp01(q) }

// Name returns "uniform".
func (Uniform) Name() string { return "uniform" }

// Power is the polynomially decaying density f(x) = (1-a)·x^-a on (0,1),
// the classic model of keys crowding toward one end of the space (e.g.
// lexicographically ordered strings). a = 0 is uniform; a -> 1 is
// extreme skew.
type Power struct {
	a float64
}

// NewPower returns the power density with exponent a in [0,1). It panics
// outside that range (the density would not be normalisable).
func NewPower(a float64) Power {
	if !(a >= 0 && a < 1) {
		panic(fmt.Sprintf("dist: power exponent %v outside [0,1)", a))
	}
	return Power{a: a}
}

// CDF returns x^(1-a).
func (p Power) CDF(x float64) float64 { return math.Pow(clamp01(x), 1-p.a) }

// Quantile returns q^(1/(1-a)).
func (p Power) Quantile(q float64) float64 { return math.Pow(clamp01(q), 1/(1-p.a)) }

// Name returns "power(a)".
func (p Power) Name() string { return fmt.Sprintf("power(%g)", p.a) }

// TruncExp is the exponential density with rate l truncated to [0,1):
// f(x) = l·e^(-l·x) / (1 - e^(-l)).
type TruncExp struct {
	l    float64
	norm float64 // 1 - e^(-l)
}

// NewTruncExp returns the truncated exponential with rate l > 0. It
// panics for non-positive rates (use Uniform for l -> 0).
func NewTruncExp(l float64) TruncExp {
	if !(l > 0) {
		panic(fmt.Sprintf("dist: truncexp rate %v must be positive", l))
	}
	return TruncExp{l: l, norm: -math.Expm1(-l)}
}

// CDF returns (1 - e^(-l·x)) / (1 - e^(-l)).
func (e TruncExp) CDF(x float64) float64 {
	return clamp01(-math.Expm1(-e.l*clamp01(x)) / e.norm)
}

// Quantile returns -ln(1 - q·(1 - e^(-l))) / l.
func (e TruncExp) Quantile(q float64) float64 {
	return clamp01(-math.Log1p(-clamp01(q)*e.norm) / e.l)
}

// Name returns "truncexp(l)".
func (e TruncExp) Name() string { return fmt.Sprintf("truncexp(%g)", e.l) }

// TruncNormal is the normal density N(mu, sigma²) truncated to [0,1).
type TruncNormal struct {
	mu, sigma float64
	lo, span  float64 // Phi((0-mu)/sigma) and Phi((1-mu)/sigma)-lo
}

// NewTruncNormal returns the truncated normal with the given location and
// scale. It panics unless sigma > 0 and the density has mass in [0,1).
func NewTruncNormal(mu, sigma float64) TruncNormal {
	n, err := newTruncNormal(mu, sigma)
	if err != nil {
		panic("dist: " + err.Error())
	}
	return n
}

// newTruncNormal is NewTruncNormal reporting bad parameters as an
// error, for Parse.
func newTruncNormal(mu, sigma float64) (TruncNormal, error) {
	if !(sigma > 0) {
		return TruncNormal{}, fmt.Errorf("truncnormal sigma %v must be positive", sigma)
	}
	lo := stdNormCDF((0 - mu) / sigma)
	hi := stdNormCDF((1 - mu) / sigma)
	if hi <= lo {
		return TruncNormal{}, fmt.Errorf("truncnormal(%v,%v) has no mass in [0,1)", mu, sigma)
	}
	return TruncNormal{mu: mu, sigma: sigma, lo: lo, span: hi - lo}, nil
}

// CDF returns (Phi((x-mu)/sigma) - Phi((0-mu)/sigma)) / span.
func (n TruncNormal) CDF(x float64) float64 {
	return clamp01((stdNormCDF((clamp01(x)-n.mu)/n.sigma) - n.lo) / n.span)
}

// Quantile inverts the CDF through the standard normal quantile.
func (n TruncNormal) Quantile(q float64) float64 {
	p := n.lo + clamp01(q)*n.span
	return clamp01(n.mu + n.sigma*stdNormQuantile(p))
}

// Name returns "truncnormal(mu,sigma)".
func (n TruncNormal) Name() string { return fmt.Sprintf("truncnormal(%g,%g)", n.mu, n.sigma) }

// stdNormCDF is Phi, the standard normal distribution function.
func stdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// stdNormQuantile is Phi^-1, via the inverse error function.
func stdNormQuantile(p float64) float64 {
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	default:
		return math.Sqrt2 * math.Erfinv(2*p-1)
	}
}

// Zipf is a step density over k equal-width bins with bin masses
// following Zipf's law: bin i (from the low end) has mass proportional to
// (i+1)^-s. It models discrete hot-spot populations (the first bins hold
// almost all keys) while keeping an exact piecewise-linear CDF.
type Zipf struct {
	pw *Piecewise
	k  int
	s  float64
}

// NewZipf returns the Zipf step density over k >= 1 bins with exponent
// s >= 0.
func NewZipf(k int, s float64) Zipf {
	if k < 1 {
		panic(fmt.Sprintf("dist: zipf needs k >= 1 bins, got %d", k))
	}
	if s < 0 || math.IsNaN(s) {
		panic(fmt.Sprintf("dist: zipf exponent %v must be non-negative", s))
	}
	masses := make([]float64, k)
	for i := range masses {
		masses[i] = math.Pow(float64(i+1), -s)
	}
	return Zipf{pw: NewPiecewise(masses), k: k, s: s}
}

// CDF evaluates the piecewise-linear distribution function.
func (z Zipf) CDF(x float64) float64 { return z.pw.CDF(x) }

// Quantile evaluates the piecewise-linear quantile.
func (z Zipf) Quantile(q float64) float64 { return z.pw.Quantile(q) }

// Name returns "zipf(k,s)".
func (z Zipf) Name() string { return fmt.Sprintf("zipf(%d,%g)", z.k, z.s) }

// Mixture is a convex combination of component densities.
type Mixture struct {
	parts   []Distribution
	weights []float64 // normalised, same length as parts
}

// NewMixture returns the mixture of ds with the given non-negative
// weights (normalised internally). It panics on length mismatch, empty
// input, or zero total weight.
func NewMixture(ds []Distribution, weights []float64) Mixture {
	if len(ds) == 0 || len(ds) != len(weights) {
		panic(fmt.Sprintf("dist: mixture of %d parts with %d weights", len(ds), len(weights)))
	}
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("dist: negative mixture weight %v", w))
		}
		total += w
	}
	if total <= 0 {
		panic("dist: mixture weights sum to zero")
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / total
	}
	return Mixture{parts: append([]Distribution(nil), ds...), weights: norm}
}

// CDF returns the weighted sum of the component CDFs.
func (m Mixture) CDF(x float64) float64 {
	var c float64
	for i, d := range m.parts {
		c += m.weights[i] * d.CDF(x)
	}
	return clamp01(c)
}

// Quantile inverts the mixture CDF by bisection (the CDF is monotone but
// has no closed-form inverse). 64 iterations pin the result to the last
// ulp of the unit interval.
func (m Mixture) Quantile(q float64) float64 {
	q = clamp01(q)
	lo, hi := 0.0, 1.0
	for i := 0; i < 64 && hi-lo > 0; i++ {
		mid := (lo + hi) / 2
		if m.CDF(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Name returns "mixture(k)" for a k-component mixture.
func (m Mixture) Name() string { return fmt.Sprintf("mixture(%d)", len(m.parts)) }
