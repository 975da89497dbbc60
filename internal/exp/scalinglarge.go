package exp

import (
	"time"

	"smallworld"
	"smallworld/keyspace"
	"smallworld/metrics"
)

// E20LargeScale measures the construction spine at production scale:
// wall-clock build time through the direct-to-CSR two-pass assembly,
// resident bytes per node, and routed hop cost, for N up to 2^22 plus
// a 2^24 memory-frontier row (full scale). The paper's constructions
// are per-node and embarrassingly parallel; this table is the evidence
// that the implementation keeps them that way — build time growing
// O(N log N), memory a flat few hundred bytes per node, and mean hops
// still ≈ c·log2 N at millions of peers. Build times are wall-clock
// and therefore machine-dependent; every other column is
// bit-reproducible from the seed.
func E20LargeScale(scale Scale, seed uint64) Table {
	t := Table{
		ID:      "E20",
		Title:   "Million-node scale — direct-to-CSR build time, memory, routing (uniform keys)",
		Columns: []string{"N", "buildMs", "bytes/node", "links", "meanHops", "p99", "mean/log2N"},
	}
	sizes := []int{16384, 65536}
	if scale == Full {
		sizes = []int{65536, 262144, 1048576, 4194304, 16777216}
	}
	for i, n := range sizes {
		cfg := smallworld.UniformConfig(n, seed+uint64(i))
		cfg.Sampler = smallworld.Protocol
		cfg.Topology = keyspace.Ring
		start := time.Now()
		nw, err := smallworld.Build(cfg)
		if err != nil {
			t.AddNote("build failed for N=%d: %v", n, err)
			continue
		}
		buildMs := time.Since(start).Milliseconds()
		hops := routeHops(nw, seed+700+uint64(i), queriesFor(scale))
		mean := metrics.Mean(hops)
		t.AddRow(n, buildMs, nw.Footprint()/int64(n), nw.CSR().M(), mean,
			metrics.Percentile(hops, 0.99), mean/log2(n))
	}
	t.AddNote("buildMs is wall-clock (machine-dependent); links/hops columns are seed-reproducible")
	t.AddNote("two-pass CSR assembly + cursor band scans; the mutable graph is never materialised")
	return t
}
