package dist

import (
	"fmt"
	"math"

	"smallworld/keyspace"
)

// Piecewise is a histogram density: k equal-width bins over [0,1), each
// holding a fixed probability mass, with the density constant inside a
// bin. Its CDF is piecewise linear and exactly invertible, which makes it
// the working representation for locally *estimated* densities in the
// Section 4.2 protocol (peers cannot learn a closed form, but they can
// maintain a histogram).
type Piecewise struct {
	cum []float64 // len k+1, cum[0] = 0, cum[k] = 1, non-decreasing
	k   int
}

// NewPiecewise returns the histogram density with the given non-negative
// bin masses (normalised internally). It panics on empty input, negative
// masses, or zero total mass.
func NewPiecewise(masses []float64) *Piecewise {
	if len(masses) == 0 {
		panic("dist: piecewise with no bins")
	}
	var total float64
	for _, m := range masses {
		if m < 0 || math.IsNaN(m) {
			panic(fmt.Sprintf("dist: negative bin mass %v", m))
		}
		total += m
	}
	if total <= 0 {
		panic("dist: piecewise masses sum to zero")
	}
	cum := make([]float64, len(masses)+1)
	for i, m := range masses {
		cum[i+1] = cum[i] + m/total
	}
	cum[len(masses)] = 1 // absorb rounding drift
	return &Piecewise{cum: cum, k: len(masses)}
}

// CDF interpolates the cumulative mass linearly inside the containing bin.
func (p *Piecewise) CDF(x float64) float64 {
	x = clamp01(x)
	pos := x * float64(p.k)
	i := int(pos)
	if i >= p.k {
		return 1
	}
	return clamp01(p.cum[i] + (pos-float64(i))*(p.cum[i+1]-p.cum[i]))
}

// Quantile inverts the piecewise-linear CDF: binary search for the bin,
// then linear interpolation. Zero-mass bins are skipped (their keys have
// quantile measure zero).
func (p *Piecewise) Quantile(q float64) float64 {
	q = clamp01(q)
	// First bin whose cumulative upper edge reaches q.
	lo, hi := 0, p.k-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cum[mid+1] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	span := p.cum[lo+1] - p.cum[lo]
	frac := 0.0
	if span > 0 {
		frac = (q - p.cum[lo]) / span
	}
	return clamp01((float64(lo) + clamp01(frac)) / float64(p.k))
}

// Name returns "piecewise(k)".
func (p *Piecewise) Name() string { return fmt.Sprintf("piecewise(%d)", p.k) }

// Estimate builds a histogram density from observed identifiers — the
// local density-estimation step of the Section 4.2 protocol. Each bin
// receives one pseudo-observation (Laplace smoothing) so the estimate
// stays strictly positive everywhere: an estimated CDF must remain
// strictly increasing for its quantile map to be usable as a routing
// target generator, even for key regions the peer has not observed yet.
// An empty sample therefore estimates the uniform density. bins must be
// at least 1.
func Estimate(sample []keyspace.Key, bins int) *Piecewise {
	if bins < 1 {
		panic(fmt.Sprintf("dist: estimate needs bins >= 1, got %d", bins))
	}
	masses := make([]float64, bins)
	for i := range masses {
		masses[i] = 1 // Laplace pseudo-count
	}
	for _, k := range sample {
		i := int(float64(k) * float64(bins))
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		masses[i]++
	}
	return NewPiecewise(masses)
}
