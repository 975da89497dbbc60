package smallworld

import (
	"math"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/metrics"
)

func TestPartitionsCount(t *testing.T) {
	cfg := UniformConfig(1024, 51)
	nw := mustBuild(t, cfg)
	if nw.Partitions() != 10 {
		t.Errorf("Partitions = %d, want 10", nw.Partitions())
	}
}

func TestPartitionOf(t *testing.T) {
	cfg := UniformConfig(1024, 51) // L = 10
	nw := mustBuild(t, cfg)
	cases := []struct {
		m    float64
		want int
	}{
		{0, 0},          // self
		{-1, 0},         // degenerate
		{1.0 / 2048, 1}, // below 2^-10 clamps into partition 1
		{1.0 / 1024, 1}, // [2^-10, 2^-9) -> j = 1
		{1.5 / 1024, 1}, //
		{1.0 / 512, 2},  // [2^-9, 2^-8)
		{0.25, 9},       // [2^-2, 2^-1)
		{0.5, 10},       // top partition
		{0.9, 10},       // clamps at L
	}
	for _, c := range cases {
		if got := nw.PartitionOf(c.m); got != c.want {
			t.Errorf("PartitionOf(%v) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestLinkPartitionNearUniform(t *testing.T) {
	// Section 3.1: harmonic selection gives each node "almost equal
	// probabilities to choose the long-range neighbor from each of these
	// partitions". Aggregate occupancy should be near-uniform across the
	// middle partitions (the extreme partitions are clipped by the 1/N
	// eligibility floor and by space diameter).
	cfg := UniformConfig(2048, 53)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	counts := nw.LinkPartitionCounts()
	mid := counts[2 : len(counts)-1]
	var s metrics.Summary
	for _, c := range mid {
		s.Add(float64(c))
	}
	if s.Mean() == 0 {
		t.Fatal("no links recorded")
	}
	if cv := s.CV(); cv > 0.25 {
		t.Errorf("partition occupancy CV = %v, want near-uniform (<0.25); counts %v", cv, counts)
	}
}

func TestLinkPartitionSkewedMatchesUniform(t *testing.T) {
	// The same near-uniform occupancy must hold in normalised space for
	// Model 2 on a skewed density — that is what makes Theorem 2 work.
	cfg := SkewedConfig(2048, dist.NewPower(0.8), 55)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	counts := nw.LinkPartitionCounts()
	mid := counts[2 : len(counts)-1]
	var s metrics.Summary
	for _, c := range mid {
		s.Add(float64(c))
	}
	if cv := s.CV(); cv > 0.25 {
		t.Errorf("skewed partition occupancy CV = %v; counts %v", cv, counts)
	}
}

// TestLinkPartitionCountsSum: every long link lands in a partition, so
// the counts sum to the number of long links.
func TestLinkPartitionCountsSum(t *testing.T) {
	cfg := UniformConfig(512, 57)
	nw := mustBuild(t, cfg)
	var sum, links int
	for _, c := range nw.LinkPartitionCounts() {
		sum += c
	}
	for u := 0; u < nw.N(); u++ {
		links += len(nw.LongRange(u))
	}
	if sum != links {
		t.Fatalf("partition counts sum %d != %d links", sum, links)
	}
}

func TestPartitionTrace(t *testing.T) {
	cfg := UniformConfig(512, 59)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	target := nw.Key(100)
	rt := nw.RouteGreedy(0, target)
	trace := nw.PartitionTrace(rt, float64(target))
	var total int
	for _, c := range trace {
		total += c
	}
	if total != rt.Hops() {
		t.Errorf("trace accounts for %d hops, route took %d", total, rt.Hops())
	}
	// Expected O(1) hops per partition: no partition should hold more
	// than a small constant on a healthy network.
	for j, c := range trace {
		if c > 8 {
			t.Errorf("partition %d saw %d hops on one route", j+1, c)
		}
	}
}

func TestPartitionTraceEmptyRoute(t *testing.T) {
	cfg := UniformConfig(64, 61)
	nw := mustBuild(t, cfg)
	rt := nw.RouteToNode(5, 5)
	trace := nw.PartitionTrace(rt, float64(nw.Key(5)))
	for _, c := range trace {
		if c != 0 {
			t.Error("zero-hop route should produce empty trace")
		}
	}
}

func TestPartitionOfBoundaryValues(t *testing.T) {
	// m exactly 2^(j-L) is the *exclusive* upper edge of partition j:
	// the defining inequality 2^(j-1-L) <= m < 2^(j-L) puts it in j+1
	// (clamped at L). Pin every edge, plus m = MaxDistance on both
	// topologies.
	cfg := UniformConfig(1024, 71) // L = 10
	nw := mustBuild(t, cfg)
	l := nw.Partitions()
	for j := 1; j < l; j++ {
		upper := math.Pow(2, float64(j-l))
		if got := nw.PartitionOf(upper); got != j+1 {
			t.Errorf("PartitionOf(2^%d) = %d, want %d (exclusive upper edge)", j-l, got, j+1)
		}
		below := math.Nextafter(upper, 0)
		if got := nw.PartitionOf(below); got != j {
			t.Errorf("PartitionOf(just below 2^%d) = %d, want %d", j-l, got, j)
		}
	}
	// m = MaxDistance: the line's diameter 1 clamps into the top
	// partition; the ring's diameter 0.5 falls into it exactly.
	if got := nw.PartitionOf(keyspace.Line.MaxDistance()); got != l {
		t.Errorf("PartitionOf(line diameter) = %d, want %d", got, l)
	}
	ringCfg := UniformConfig(1024, 72)
	ringCfg.Topology = keyspace.Ring
	ringNw := mustBuild(t, ringCfg)
	if got := ringNw.PartitionOf(keyspace.Ring.MaxDistance()); got != ringNw.Partitions() {
		t.Errorf("PartitionOf(ring diameter) = %d, want %d", got, ringNw.Partitions())
	}
	// Above the diameter still clamps (defensive: callers pass raw
	// measures).
	if got := nw.PartitionOf(1.5); got != l {
		t.Errorf("PartitionOf(1.5) = %d, want clamp to %d", got, l)
	}
}

func TestPartitionOfNonPowerOfTwoN(t *testing.T) {
	// L = ceil(log2 N) rounds up between powers of two; the partition
	// classification must stay consistent with its own L on both sides
	// of the boundary.
	for _, c := range []struct{ n, wantL int }{
		{1000, 10}, {1024, 10}, {1025, 11}, {3000, 12},
	} {
		cfg := UniformConfig(c.n, 73)
		nw := mustBuild(t, cfg)
		if nw.Partitions() != c.wantL {
			t.Fatalf("N=%d: Partitions = %d, want %d", c.n, nw.Partitions(), c.wantL)
		}
		l := nw.Partitions()
		for j := 1; j <= l; j++ {
			lower := math.Pow(2, float64(j-1-l))
			if got := nw.PartitionOf(lower); got != j {
				t.Errorf("N=%d: PartitionOf(2^%d) = %d, want %d", c.n, j-1-l, got, j)
			}
		}
		// Every long link lands in a valid partition and the per-node
		// counts stay within bounds.
		for u := 0; u < nw.N(); u += 97 {
			for _, v := range nw.LongRange(u) {
				j := nw.PartitionOf(nw.NormalizedMass(u, int(v)))
				if j < 0 || j > l {
					t.Fatalf("N=%d: link %d->%d classified into partition %d of %d", c.n, u, v, j, l)
				}
			}
		}
	}
}

func TestPartitionBoundaryMath(t *testing.T) {
	// PartitionOf must be consistent with its defining inequality
	// 2^(j-1-L) <= m < 2^(j-L) for interior partitions.
	cfg := UniformConfig(1024, 63)
	nw := mustBuild(t, cfg)
	l := nw.Partitions()
	for j := 1; j <= l; j++ {
		lower := math.Pow(2, float64(j-1-l))
		if got := nw.PartitionOf(lower); got != j {
			t.Errorf("PartitionOf(2^%d) = %d, want %d", j-1-l, got, j)
		}
	}
}
