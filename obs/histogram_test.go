package obs

import (
	"math"
	"testing"
)

// Internal test: bucketOf and the boundary convention are unexported,
// and getting them wrong silently misfiles every latency sample.

func TestBucketBoundInclusive(t *testing.T) {
	// A sample exactly at a bucket's upper bound belongs to that bucket
	// (Prometheus "le" semantics); the next representable value above it
	// belongs to the following one.
	for i := 0; i < HistBuckets-1; i++ {
		b := BucketBound(i)
		if got := bucketOf(b); got != i {
			t.Errorf("bucketOf(BucketBound(%d)=%g) = %d, want %d", i, b, got, i)
		}
		above := math.Nextafter(b, math.Inf(1))
		if got := bucketOf(above); got != i+1 {
			t.Errorf("bucketOf(just above %g) = %d, want %d", b, got, i+1)
		}
	}
	// Positive values below the first bound clamp into bucket 0.
	if got := bucketOf(math.Ldexp(1, -30)); got != 0 {
		t.Errorf("bucketOf(2^-30) = %d, want 0", got)
	}
	// Values beyond the last bound report HistBuckets (overflow).
	if got := bucketOf(math.Nextafter(BucketBound(HistBuckets-1), math.Inf(1))); got != HistBuckets {
		t.Errorf("bucketOf(just above last bound) = %d, want %d", got, HistBuckets)
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	var h Histogram
	// v <= 0 and -Inf: underflow, no sum contribution.
	h.Observe(0)
	h.Observe(-3.5)
	h.Observe(math.Inf(-1))
	if got := h.under.Load(); got != 3 {
		t.Fatalf("underflow = %d, want 3", got)
	}
	if got := h.Sum(); got != 0 {
		t.Fatalf("Sum() after underflow-only = %g, want 0", got)
	}
	// +Inf and NaN: overflow, no sum contribution.
	h.Observe(math.Inf(1))
	h.Observe(math.NaN())
	if got := h.over.Load(); got != 2 {
		t.Fatalf("overflow = %d, want 2", got)
	}
	if got := h.Sum(); got != 0 {
		t.Fatalf("Sum() after Inf/NaN = %g, want 0", got)
	}
	// A finite sample beyond the last bound overflows but does count
	// toward the sum.
	big := math.Ldexp(1, 25) // 2^25 > 2^19
	h.Observe(big)
	if got := h.over.Load(); got != 3 {
		t.Fatalf("overflow = %d, want 3", got)
	}
	if got := h.Sum(); got != big {
		t.Fatalf("Sum() = %g, want %g", got, big)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("Count() = %d, want 6", got)
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	var h Histogram
	samples := []float64{1, 2, 2, 3, 8, 100}
	var want float64
	for _, v := range samples {
		h.Observe(v)
		want += v
	}
	// 1 and 2 sit exactly on power-of-two bounds: 2^0 is bucket 20,
	// 2^1 is bucket 21; 3 is in (2,4] = bucket 22; 8 = 2^3 bucket 23;
	// 100 in (64,128] = bucket 27.
	for _, tc := range []struct {
		bucket int
		count  uint64
	}{{20, 1}, {21, 2}, {22, 1}, {23, 1}, {27, 1}} {
		if got := h.counts[tc.bucket].Load(); got != tc.count {
			t.Errorf("bucket %d holds %d, want %d", tc.bucket, got, tc.count)
		}
	}
	if got := h.Count(); got != uint64(len(samples)) {
		t.Errorf("Count() = %d, want %d", got, len(samples))
	}
	if got := h.Sum(); math.Abs(got-want) > 1e-6*want {
		t.Errorf("Sum() = %g, want %g", got, want)
	}
}

func TestHistogramSnapshotFoldsUnderflow(t *testing.T) {
	var h Histogram
	h.Observe(-1)                 // underflow
	h.Observe(math.Ldexp(1, -21)) // bucket 0 proper
	h.Observe(math.Ldexp(1, 30))  // overflow
	buckets, over := h.Snapshot()
	if len(buckets) != HistBuckets {
		t.Fatalf("Snapshot buckets len = %d, want %d", len(buckets), HistBuckets)
	}
	if buckets[0] != 2 {
		t.Errorf("Snapshot bucket 0 = %d, want 2 (underflow folded in)", buckets[0])
	}
	if over != 1 {
		t.Errorf("Snapshot overflow = %d, want 1", over)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %g, want 0", got)
	}

	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(4) // all mass in the (2,4] bucket
	}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		q := h.Quantile(p)
		if q < 2 || q > 4 {
			t.Errorf("Quantile(%g) = %g, want within the (2,4] bucket's range", p, q)
		}
	}

	// Overflow-dominated mass resolves to the last finite bound.
	var ov Histogram
	for i := 0; i < 10; i++ {
		ov.Observe(math.Ldexp(1, 30))
	}
	last := BucketBound(HistBuckets - 1)
	if got := ov.Quantile(0.9); got != last {
		t.Errorf("overflow Quantile(0.9) = %g, want last bound %g", got, last)
	}
}
