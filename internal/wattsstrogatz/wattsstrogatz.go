// Package wattsstrogatz implements the Watts–Strogatz rewiring model
// (Nature 1998 — the paper's reference [17]), the construction the
// paper's Background section contrasts against Kleinberg's: rewiring a
// regular ring lattice with probability p produces graphs that are
// "small world" in the structural sense (low diameter, high clustering)
// for intermediate p, yet — as Kleinberg proved and experiment E16
// reproduces — *greedy* routing cannot exploit their short paths,
// because rewired links carry no distance information.
package wattsstrogatz

import (
	"fmt"
	"slices"

	"smallworld/graph"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// Config describes a Watts–Strogatz graph.
type Config struct {
	// N is the number of nodes (>= 4).
	N int
	// K is the even number of lattice neighbours per node (K/2 each
	// side).
	K int
	// P is the rewiring probability in [0,1]: 0 keeps the regular
	// lattice, 1 yields an (almost) random graph.
	P float64
	// Seed drives all randomness.
	Seed uint64
}

// Network is a built Watts–Strogatz graph. Nodes sit at evenly spaced
// ring positions i/N, so greedy key-distance routing is well defined and
// comparable with the Kleinberg-style overlays.
type Network struct {
	cfg Config
	csr *graph.CSR
}

// Build constructs the graph: a ring lattice where each node connects to
// its K/2 clockwise successors (edges inserted in both directions), then
// each lattice edge's far endpoint is rewired to a uniform random node
// with probability P.
func Build(cfg Config) (*Network, error) {
	if cfg.N < 4 {
		return nil, fmt.Errorf("wattsstrogatz: N = %d, need >= 4", cfg.N)
	}
	if cfg.K < 2 || cfg.K%2 != 0 || cfg.K >= cfg.N {
		return nil, fmt.Errorf("wattsstrogatz: K = %d must be even, >= 2 and < N", cfg.K)
	}
	if cfg.P < 0 || cfg.P > 1 {
		return nil, fmt.Errorf("wattsstrogatz: P = %v outside [0,1]", cfg.P)
	}
	rng := xrand.New(cfg.Seed)
	rows := make([][]int32, cfg.N)
	// addEdge inserts u -> v unless it is a self-loop or already present.
	addEdge := func(u, v int) {
		if u != v && !slices.Contains(rows[u], int32(v)) {
			rows[u] = append(rows[u], int32(v))
		}
	}
	for u := 0; u < cfg.N; u++ {
		for j := 1; j <= cfg.K/2; j++ {
			v := (u + j) % cfg.N
			if rng.Bool(cfg.P) {
				// Rewire: pick a random endpoint avoiding self-loops and
				// duplicates (retry a few times like the original model).
				for attempt := 0; attempt < 32; attempt++ {
					w := rng.Intn(cfg.N)
					if w != u && !slices.Contains(rows[u], int32(w)) {
						v = w
						break
					}
				}
			}
			addEdge(u, v)
			addEdge(v, u)
		}
	}
	csr := graph.AssembleCSR(cfg.N, 1,
		func(u int) int { return len(rows[u]) },
		func(u int, row []int32) { copy(row, rows[u]) },
	)
	return &Network{cfg: cfg, csr: csr}, nil
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.cfg.N }

// CSR returns the graph's flat adjacency (rows sorted ascending). It
// must not be modified.
func (nw *Network) CSR() *graph.CSR { return nw.csr }

// Key returns node u's ring position u/N.
func (nw *Network) Key(u int) keyspace.Key {
	return keyspace.Key(float64(u) / float64(nw.cfg.N))
}

// RouteGreedy performs greedy ring-distance routing toward the node dst,
// returning the hop count and whether it reached dst. Unlike the
// harmonic small-world constructions, Watts–Strogatz graphs give greedy
// routing no usable gradient: expect frequent long walks along the
// lattice even when short paths exist.
func (nw *Network) RouteGreedy(src, dst int) (hops int, arrived bool) {
	hops, _, arrived = nw.Route(src, dst)
	return hops, arrived
}

// Route is RouteGreedy reporting the terminal node as well: the node at
// which greedy routing stopped, whether or not it is dst.
func (nw *Network) Route(src, dst int) (hops, last int, arrived bool) {
	target := nw.Key(dst)
	cur := src
	dCur := keyspace.Ring.Distance(nw.Key(cur), target)
	for step := 0; step <= nw.cfg.N; step++ {
		if cur == dst {
			return hops, cur, true
		}
		best, bestD := -1, dCur
		for _, v := range nw.csr.Out(cur) {
			if d := keyspace.Ring.Distance(nw.Key(int(v)), target); d < bestD {
				best, bestD = int(v), d
			}
		}
		if best == -1 {
			return hops, cur, false
		}
		cur, dCur = best, bestD
		hops++
	}
	return hops, cur, false
}

// Stats reports the two structural small-world measures of the original
// paper: mean clustering coefficient and mean shortest-path length
// (sampled over `samples` BFS sources), both computed on the CSR.
func (nw *Network) Stats(r *xrand.Stream, samples int) (clustering, meanPath float64) {
	return nw.StatsWith(r, samples, &graph.Scratch{})
}

// StatsWith is Stats reusing sc's BFS buffers, so a sweep over many
// graphs of the same size (E16's rewiring-probability sweep) allocates
// its dist/queue scratch once instead of per graph.
func (nw *Network) StatsWith(r *xrand.Stream, samples int, sc *graph.Scratch) (clustering, meanPath float64) {
	clustering = nw.csr.ClusteringCoefficient()
	s, _ := nw.csr.PathLengthStatsWith(r, samples, sc)
	return clustering, s.Mean()
}
