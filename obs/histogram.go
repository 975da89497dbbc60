package obs

import (
	"math"
	"sync/atomic"

	"smallworld/metrics"
)

// Histogram layout: HistBuckets base-2 buckets plus explicit underflow
// and overflow cells. Bucket i has upper bound 2^(histMinExp+i); the
// range 2^-20 (≈ 1e-6) to 2^19 (524288) covers microsecond latencies,
// hop counts, queue depths and virtual-time latencies with one shared
// shape, so registries stay preallocatable and merges stay trivial.
const (
	// HistBuckets is the number of finite base-2 buckets.
	HistBuckets = 40
	// histMinExp is the exponent of the first bucket's upper bound:
	// bucket 0 holds 0 < v <= 2^histMinExp.
	histMinExp = -20
)

// Histogram is a fixed-bucket base-2 histogram: preallocated, lock-free
// and allocation-free on the update path. Samples v <= 0 (and -Inf)
// count in the underflow cell and contribute nothing to the sum; +Inf,
// NaN and values beyond the last bucket count in the overflow cell
// (NaN additionally contributes nothing to the sum). The zero value is
// ready to use.
type Histogram struct {
	counts [HistBuckets]atomic.Uint64
	under  atomic.Uint64
	over   atomic.Uint64
	// sum accumulates in millionths so it can be a single atomic
	// integer: good to ~18e12 units of total observed value, far beyond
	// any run this repository performs.
	sumMicro atomic.Uint64
}

// BucketBound returns bucket i's inclusive upper bound, 2^(i-20).
func BucketBound(i int) float64 { return math.Ldexp(1, histMinExp+i) }

// bucketOf maps a positive finite sample to its bucket index, or
// HistBuckets when it exceeds the last bound.
func bucketOf(v float64) int {
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	i := exp - histMinExp
	if frac == 0.5 {
		i-- // exactly a power of two: inclusive upper bound
	}
	if i < 0 {
		return 0
	}
	return i
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// +Inf must be classified before bucketOf: Frexp(+Inf) = (+Inf, 0),
	// which would otherwise misfile it into a finite bucket.
	if math.IsNaN(v) || math.IsInf(v, 1) {
		h.over.Add(1)
		return
	}
	if v <= 0 {
		h.under.Add(1)
		return
	}
	if i := bucketOf(v); i < HistBuckets {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.sumMicro.Add(uint64(v * 1e6))
}

// Count returns the total number of samples observed, including
// underflow and overflow.
func (h *Histogram) Count() uint64 {
	sum := h.under.Load() + h.over.Load()
	for i := range h.counts {
		sum += h.counts[i].Load()
	}
	return sum
}

// Sum returns the accumulated sample sum (positive finite samples
// only).
func (h *Histogram) Sum() float64 {
	return float64(h.sumMicro.Load()) / 1e6
}

// Snapshot copies the bucket counts (underflow folded into bucket 0,
// the way Prometheus exposition reports them) into a fresh slice of
// length HistBuckets, and returns it with the overflow count.
func (h *Histogram) Snapshot() (buckets []uint64, overflow uint64) {
	buckets = make([]uint64, HistBuckets)
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
	}
	buckets[0] += h.under.Load()
	return buckets, h.over.Load()
}

// histBounds is the shared upper-bound table for every Histogram.
var histBounds = func() []float64 {
	b := make([]float64, HistBuckets)
	for i := range b {
		b[i] = BucketBound(i)
	}
	return b
}()

// Quantile returns the approximate p-quantile (0 <= p <= 1) of the
// observed samples (metrics.HistogramQuantile over the bucket counts;
// underflow resolves within the first bucket, overflow to the last
// bound). An empty histogram returns 0.
func (h *Histogram) Quantile(p float64) float64 {
	buckets, over := h.Snapshot()
	return metrics.HistogramQuantile(histBounds, buckets, over, p)
}
