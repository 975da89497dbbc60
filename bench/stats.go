package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over non-negative integers
// (nanoseconds, by convention): exact below 64, then 64 linear
// sub-buckets per power of two, so a bucket is at most 1/64 (1.6%) of
// its value wide. Percentiles interpolate inside the bucket by rank, so
// two runs with different samples rarely report the same value.
type hist struct {
	n      uint64
	sum    float64
	counts [histBuckets]uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)<<histSubBits + int((v>>uint(e))&(histSub-1))
}

// bucketRange returns bucket i's half-open value range [lo, lo+width).
func bucketRange(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i>>histSubBits - 1
	m := i & (histSub - 1)
	return float64(uint64(histSub+m) << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.n++
	h.sum += float64(v)
	h.counts[bucketOf(uint64(v))]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile (0 < q <= 1): the value below which a
// fraction q of the samples lie, interpolated linearly inside the
// bucket that holds that rank. 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(histBuckets - 1)
	return lo + w
}

// tailQuantile returns the quantile actually reported for a requested
// tail (e.g. 0.99) over n samples: the highest quantile, at most want,
// that still leaves at least 10 samples beyond it. Below 20 samples it
// is the median.
func tailQuantile(want float64, n uint64) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(want, 1-10/float64(n))
}

// tail reports the value at tailQuantile(want, h.n).
func (h *hist) tail(want float64) float64 {
	return h.quantile(tailQuantile(want, h.n))
}

// quartiles returns the first quartile, median and third quartile of
// values by the same "exclusive" method as Python's
// statistics.quantiles(values, n=4). A single value is all three.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}
