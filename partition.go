package smallworld

import (
	"math"
)

// Partitions returns the number of doubling partitions the paper uses in
// its analysis: L = ceil(log2 N). Partition j in [1, L] holds nodes at
// normalised distance [2^(j-1-L), 2^(j-L)) from a reference point.
func (nw *Network) Partitions() int {
	return int(math.Ceil(math.Log2(float64(nw.cfg.N))))
}

// PartitionOf classifies a normalised distance m into its doubling
// partition index in [1, L]; distances below 2^-L fall into partition 1,
// distances at or above the space diameter into partition L. It returns 0
// for non-positive m (a node is in no partition relative to itself).
//
// The classification uses Frexp, which decomposes m = f·2^e with
// f ∈ [0.5, 1) exactly, so the defining inequality 2^(j-1-L) <= m <
// 2^(j-L) holds bit-exactly at every dyadic boundary — Log2 rounds
// values within one ulp of a boundary onto it and misclassified them by
// one partition.
func (nw *Network) PartitionOf(m float64) int {
	if m <= 0 {
		return 0
	}
	l := nw.Partitions()
	_, e := math.Frexp(m)
	j := e + l
	if j < 1 {
		j = 1
	}
	if j > l {
		j = l
	}
	return j
}

// LinkPartitionCounts returns how many long-range links fall into each
// doubling partition of normalised distance from their source, over all
// nodes. Index 0 of the result is partition 1.
//
// Section 3.1 observes that under the harmonic selection rule these
// counts are near-uniform across partitions — the "probabilistic
// partitioning" that makes the model subsume Chord/Pastry/P-Grid routing
// tables, which place exactly one entry per partition.
func (nw *Network) LinkPartitionCounts() []int {
	counts := make([]int, nw.Partitions())
	for u := 0; u < nw.cfg.N; u++ {
		for _, v := range nw.long[u] {
			if j := nw.PartitionOf(nw.NormalizedMass(u, int(v))); j >= 1 {
				counts[j-1]++
			}
		}
	}
	return counts
}

// PartitionTrace classifies every step of a route by the partition of the
// current node's normalised distance to the target's image in R', and
// returns the number of hops spent in each partition (index 0 =
// partition 1). It is the instrument behind the E13 check that greedy
// routing spends O(1) expected hops per partition (EXj <= (1-c)/c in the
// Theorem 1 proof).
func (nw *Network) PartitionTrace(route Route, target float64) []int {
	counts := make([]int, nw.Partitions())
	targetNorm := nw.cfg.Dist.CDF(clamp01(target))
	steps := len(route.Path) - 1
	if steps < 0 {
		steps = 0
	}
	for _, u := range route.Path[:steps] {
		m := math.Abs(nw.norm[u] - targetNorm)
		if nw.cfg.Topology.MaxDistance() == 0.5 && m > 0.5 {
			m = 1 - m
		}
		if j := nw.PartitionOf(m); j >= 1 {
			counts[j-1]++
		}
	}
	return counts
}
