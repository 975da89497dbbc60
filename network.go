package smallworld

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"smallworld/graph"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// Network is an immutable small-world overlay built by Build. Node indices
// are ranks in key order: node i holds the i-th smallest identifier, so
// node i's ring/line neighbours are i-1 and i+1.
type Network struct {
	cfg  Config
	keys keyspace.Points // sorted identifiers
	norm []float64       // norm[i] = F(keys[i]), the image of node i in R'
	mpos []float64       // measure-space positions: norm (Mass) or keys (Geometric)
	csr  *graph.CSR      // the overlay graph: every router and analysis reads this
	long [][]int32       // long-range targets per node (subset of csr rows)
	// succStart is the successor index while links are sampled (see
	// indexKeys), nil after.
	succStart []int32

	shortfall int // long-range links that could not be placed

	routers sync.Pool // *Router scratch for the allocating convenience API
}

// Build constructs the overlay described by cfg. The same cfg and seed
// always produce the same network, regardless of Workers.
func Build(cfg Config) (*Network, error) {
	return BuildContext(context.Background(), cfg)
}

// BuildContext is Build with cooperative cancellation: the long-range
// sampling phase checks ctx between node chunks, and a cancelled build
// returns ctx.Err() instead of a network. A build that completes is
// bit-identical to one from Build with the same cfg.
func BuildContext(ctx context.Context, cfg Config) (*Network, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	var smp sampler
	switch cfg.Sampler {
	case Exact:
		smp = exactSampler{}
	case Protocol:
		smp = protocolSampler{}
	default:
		return nil, fmt.Errorf("smallworld: unknown sampler %v", cfg.Sampler)
	}
	return build(ctx, cfg, smp)
}

// sampleChunk is the unit of work handed to a construction worker: a
// contiguous node range. Chunked (rather than per-node) distribution
// keeps channel/atomic traffic negligible at million-node scale, and
// contiguity is what lets the exact sampler advance its band cursors
// incrementally instead of re-running binary searches per node.
const sampleChunk = 256

// build runs the construction with an explicit sampler implementation
// (tests and benchmarks inject naiveExactSampler here).
func build(ctx context.Context, cfg Config, smp sampler) (*Network, error) {
	master := xrand.New(cfg.Seed)

	keys, err := placeKeys(cfg, master)
	if err != nil {
		return nil, err
	}
	nw := &Network{
		cfg:  cfg,
		keys: keys,
		norm: make([]float64, cfg.N),
		long: make([][]int32, cfg.N),
	}
	// Measure-space positions: ascending in node order for both measures
	// (keys are sorted; the CDF is monotone). The exact sampler's band
	// searches index into this array. Per-node CDF evaluation is pure,
	// so the fill parallelises over contiguous ranges.
	if cfg.Measure != Mass {
		nw.mpos = make([]float64, cfg.N)
	}
	graph.ParallelRanges(cfg.N, cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nw.norm[i] = cfg.Dist.CDF(float64(keys[i]))
		}
		if cfg.Measure != Mass {
			for i := lo; i < hi; i++ {
				nw.mpos[i] = float64(keys[i])
			}
		}
	})
	if cfg.Measure == Mass {
		nw.mpos = nw.norm
	}

	// Derive one deterministic seed per node before fanning out, so the
	// result does not depend on scheduling.
	seeds := make([]uint64, cfg.N)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}
	degree := cfg.Degree(cfg.N)
	if degree < 0 {
		return nil, fmt.Errorf("smallworld: negative degree %d", degree)
	}

	// Long-range sampling: workers claim contiguous chunks through an
	// atomic cursor. Per-node seeded streams make the link sets a pure
	// function of (cfg, seed) whatever the chunk/worker interleaving.
	nw.indexKeys()
	var wg sync.WaitGroup
	var cursor atomic.Int64
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &samplerScratch{} // per-worker scratch, reused across nodes
			var rng xrand.Stream
			for {
				lo := int(cursor.Add(sampleChunk)) - sampleChunk
				if lo >= cfg.N || ctx.Err() != nil {
					return
				}
				hi := lo + sampleChunk
				if hi > cfg.N {
					hi = cfg.N
				}
				for u := lo; u < hi; u++ {
					rng.Reseed(seeds[u])
					nw.long[u] = smp.sampleLinks(nw, u, degree, &rng, sc)
				}
			}
		}()
	}
	wg.Wait()
	nw.succStart = nil
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	nw.csr = nw.assembleCSR()
	for u := 0; u < cfg.N; u++ {
		nw.shortfall += degree - len(nw.long[u])
	}
	return nw, nil
}

// placeKeys samples (or copies) and sorts the peer identifiers, resolving
// exact duplicates.
func placeKeys(cfg Config, master *xrand.Stream) (keyspace.Points, error) {
	ks := make([]keyspace.Key, cfg.N)
	if cfg.Keys != nil {
		copy(ks, cfg.Keys)
	} else {
		// The uniforms come off the stream in order; the quantiles are
		// pure, so they are taken in parallel.
		rng := master.Split()
		for i := range ks {
			ks[i] = keyspace.Key(rng.Float64())
		}
		graph.ParallelRanges(cfg.N, cfg.Workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ks[i] = keyspace.Clamp(cfg.Dist.Quantile(float64(ks[i])))
			}
		})
	}
	pts := keyspace.SortPoints(ks)
	for i := 1; i < len(pts); i++ {
		if pts[i] == pts[i-1] {
			if cfg.Keys != nil {
				return nil, fmt.Errorf("smallworld: duplicate fixed key %v", pts[i])
			}
			// Nudge sampled duplicates apart; astronomically rare with
			// float64 sampling but cheap to make impossible.
			next := keyspace.Key(math.Nextafter(float64(pts[i-1]), 1))
			if i+1 < len(pts) && next >= pts[i+1] {
				return nil, fmt.Errorf("smallworld: cannot separate duplicate key %v", pts[i])
			}
			pts[i] = next
		}
	}
	return pts, nil
}

// assembleCSR builds the flat adjacency from the neighbour rule and
// nw.long in two parallel passes (graph.AssembleCSR). Rows are
// neighbouring edges plus the long-range links; the sampler guarantees
// they are distinct, so every row is sorted and duplicate-free.
func (nw *Network) assembleCSR() *graph.CSR {
	return graph.AssembleCSR(nw.cfg.N, nw.cfg.Workers,
		func(u int) int { return nw.neighborTargetCount(u) + len(nw.long[u]) },
		nw.fillAdjacencyRow,
	)
}

// neighborTargetCount returns how many neighbouring-edge targets node u
// has: predecessor and successor in key order, wrapping only on the
// ring (and only for n > 2, where the wrap edge is not already the
// line edge).
func (nw *Network) neighborTargetCount(u int) int {
	n := nw.cfg.N
	count := 0
	if u > 0 {
		count++
	}
	if u+1 < n {
		count++
	}
	if nw.cfg.Topology == keyspace.Ring && n > 2 && (u == 0 || u == n-1) {
		count++
	}
	return count
}

// fillAdjacencyRow writes node u's full out-neighbour set — the paper's
// neighbouring edges NE plus its sampled long-range links — into row,
// which must have length neighborTargetCount(u)+len(long[u]). The
// assembler sorts the row afterwards.
func (nw *Network) fillAdjacencyRow(u int, row []int32) {
	n := nw.cfg.N
	i := 0
	if u > 0 {
		row[i] = int32(u - 1)
		i++
	}
	if u+1 < n {
		row[i] = int32(u + 1)
		i++
	}
	if nw.cfg.Topology == keyspace.Ring && n > 2 {
		if u == 0 {
			row[i] = int32(n - 1)
			i++
		} else if u == n-1 {
			row[i] = 0
			i++
		}
	}
	copy(row[i:], nw.long[u])
}

// isNeighborIndex reports whether v is one of u's neighbouring-edge
// targets.
func (nw *Network) isNeighborIndex(u, v int) bool {
	n := nw.cfg.N
	if v == u+1 || v == u-1 {
		return true
	}
	if nw.cfg.Topology == keyspace.Ring {
		if (u == 0 && v == n-1) || (u == n-1 && v == 0) {
			return true
		}
	}
	return false
}

// measureBetween returns the configured selection measure between nodes
// u and v: geometric key distance or probability mass.
func (nw *Network) measureBetween(u, v int) float64 {
	if nw.cfg.Measure == Mass {
		m := math.Abs(nw.norm[u] - nw.norm[v])
		if nw.cfg.Topology == keyspace.Ring && m > 0.5 {
			m = 1 - m
		}
		return m
	}
	return nw.cfg.Topology.Distance(nw.keys[u], nw.keys[v])
}

// NormalizedMass returns the distance between the images of u and v in
// the normalised space R' (equal to the probability mass between them).
func (nw *Network) NormalizedMass(u, v int) float64 {
	m := math.Abs(nw.norm[u] - nw.norm[v])
	if nw.cfg.Topology == keyspace.Ring && m > 0.5 {
		m = 1 - m
	}
	return m
}

// Config returns the (defaulted) configuration the network was built with.
func (nw *Network) Config() Config { return nw.cfg }

// N returns the number of peers.
func (nw *Network) N() int { return nw.cfg.N }

// Keys returns the sorted identifiers; index = node id. The slice must
// not be modified.
func (nw *Network) Keys() keyspace.Points { return nw.keys }

// Key returns node u's identifier.
func (nw *Network) Key(u int) keyspace.Key { return nw.keys[u] }

// Norm returns F(key(u)), node u's position in the normalised space R'.
func (nw *Network) Norm(u int) float64 { return nw.norm[u] }

// CSR returns the overlay graph (neighbour + long-range edges) as a
// compressed-sparse-row snapshot — the flat adjacency every router and
// analysis iterates. It must not be modified.
func (nw *Network) CSR() *graph.CSR { return nw.csr }

// LongRange returns node u's long-range targets. The slice must not be
// modified.
func (nw *Network) LongRange(u int) []int32 { return nw.long[u] }

// Footprint returns the approximate resident bytes of the overlay's
// routing state: identifiers, normalised positions, the CSR adjacency,
// and the per-node long-range link sets.
func (nw *Network) Footprint() int64 {
	b := int64(len(nw.keys)) * 8 // identifiers
	b += int64(len(nw.norm)) * 8 // normalised positions
	if nw.cfg.Measure != Mass {  // mpos aliases norm for Mass
		b += int64(len(nw.mpos)) * 8
	}
	b += int64(nw.csr.N()+1)*4 + int64(nw.csr.M())*4 // CSR offsets + targets
	for _, l := range nw.long {                      // long-link rows + headers
		b += 24 + int64(cap(l))*4
	}
	return b
}

// ClosestNode returns the node whose identifier is closest to target.
func (nw *Network) ClosestNode(target keyspace.Key) int {
	return nw.keys.Nearest(nw.cfg.Topology, target)
}

// WithFailedLinks returns a copy of the network in which each long-range
// edge has been removed independently with probability frac, modelling
// partial routing-table loss under churn (the Section 3.1 robustness
// observation). Neighbouring edges are never removed, so the overlay
// stays connected. The copy shares the identifier storage with nw.
func (nw *Network) WithFailedLinks(r *xrand.Stream, frac float64) *Network {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	derived := &Network{
		cfg:  nw.cfg,
		keys: nw.keys,
		norm: nw.norm,
		mpos: nw.mpos,
		long: make([][]int32, nw.cfg.N),
	}
	// One draw per long link, in node order and then link order.
	for u, links := range nw.long {
		for _, v := range links {
			if !r.Bool(frac) {
				derived.long[u] = append(derived.long[u], v)
			}
		}
	}
	derived.csr = derived.assembleCSR()
	return derived
}
