package main

import (
	"math"
	"testing"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		want float64
	}{
		{5, 0.5},      // too few for any tail: the median
		{19, 0.5},     //
		{20, 0.5},     // 1 - 10/20
		{100, 0.9},    // p99 would leave one sample beyond it
		{500, 0.98},   //
		{1000, 0.99},  // exactly ten beyond p99
		{100000, .99}, // capped at the requested tail
	} {
		if got := tailQuantile(0.99, tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(0.99, %d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.add(v * 1000) // 1 µs .. 1 ms
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 500e3}, {0.9, 900e3}, {0.99, 990e3},
	} {
		if got := h.quantile(tc.q); math.Abs(got-tc.want)/tc.want > 0.02 {
			t.Errorf("quantile(%v) = %v, want %v within 2%%", tc.q, got, tc.want)
		}
	}
	if got, want := h.tail(0.99), h.quantile(0.99); got != want {
		t.Errorf("tail(0.99) over 1000 samples = %v, want p99 %v", got, want)
	}
	var small hist
	for v := int64(1); v <= 100; v++ {
		small.add(v * 1000)
	}
	if got := small.tail(0.99); math.Abs(got-90e3)/90e3 > 0.02 {
		t.Errorf("tail(0.99) over 100 samples = %v, want p90 ≈ 90000", got)
	}
	if m := h.mean(); math.Abs(m-500.5e3) > 1 {
		t.Errorf("mean = %v, want 500500", m)
	}
	var empty hist
	if empty.quantile(0.5) != 0 || empty.tail(0.99) != 0 {
		t.Error("empty histogram must report 0")
	}
}

func TestHistBucketsCoverValues(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 123456789, 1 << 40, 1<<62 + 12345} {
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d outside its bucket [%v, %v)", v, lo, lo+w)
		}
		if v >= 64 && w/lo > 1.0/64+1e-12 {
			t.Errorf("bucket of %d is %v wide at %v: coarser than 1/64", v, w, lo)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python: statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(tc.data)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.data, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
