// Package lattice implements Kleinberg's original small-world model
// (STOC 2000 — the paper's reference [7]) in its native form: an n×n
// two-dimensional grid where every node keeps links to its lattice
// neighbours plus q long-range links chosen with probability
// proportional to d(u,v)^-r in Manhattan distance. It exists to
// reproduce, in the dimension Kleinberg analysed, the characterisation
// the paper's Background section builds on: decentralized greedy routing
// is efficient iff r equals the lattice dimension (r = 2 here).
package lattice

import (
	"fmt"
	"math"

	"smallworld/xrand"
)

// Config describes a Kleinberg lattice.
type Config struct {
	// Side is the grid side length n (the lattice has n² nodes).
	Side int
	// Q is the number of long-range links per node.
	Q int
	// R is the link-selection exponent in d^-R.
	R float64
	// Seed drives all randomness.
	Seed uint64
}

// Network is a built lattice.
type Network struct {
	cfg  Config
	long [][]int32 // long-range targets per node
}

// Build constructs the lattice. For every node, long-range targets are
// sampled by drawing a Manhattan radius with probability proportional to
// (number of nodes at that radius)·radius^-R and then a uniform node on
// that radius ring — an exact O(1)-per-draw sampler for the lattice
// weight function.
func Build(cfg Config) (*Network, error) {
	if cfg.Side < 2 {
		return nil, fmt.Errorf("lattice: side = %d, need >= 2", cfg.Side)
	}
	if cfg.Q < 0 {
		return nil, fmt.Errorf("lattice: negative Q")
	}
	if cfg.R < 0 {
		return nil, fmt.Errorf("lattice: negative R")
	}
	n := cfg.Side
	nw := &Network{cfg: cfg, long: make([][]int32, n*n)}
	master := xrand.New(cfg.Seed)

	// Radius weights: at Manhattan radius d on an infinite lattice there
	// are 4d nodes, so P(radius = d) ∝ 4d·d^-R. Boundary effects make
	// some draws miss (fewer actual nodes near edges); we resample.
	maxRadius := 2 * (n - 1)
	cum := make([]float64, maxRadius+1)
	for d := 1; d <= maxRadius; d++ {
		cum[d] = cum[d-1] + 4*float64(d)*math.Pow(float64(d), -cfg.R)
	}
	total := cum[maxRadius]

	for u := 0; u < n*n; u++ {
		rng := xrand.New(master.Uint64())
		ux, uy := u%n, u/n
		links := make([]int32, 0, cfg.Q)
		for attempts := 0; len(links) < cfg.Q && attempts < 64*(cfg.Q+1); attempts++ {
			// Sample a radius by inverse transform on the cumulative
			// weights (binary search would be fine; linear is clear and
			// the loop is short relative to the resample cost).
			target := rng.Float64() * total
			d := 1
			for d < maxRadius && cum[d] < target {
				d++
			}
			// Uniform point on the radius-d diamond around u.
			k := rng.Intn(4 * d)
			vx, vy := diamondPoint(ux, uy, d, k)
			if vx < 0 || vx >= n || vy < 0 || vy >= n {
				continue // fell off the grid; resample
			}
			v := int32(vy*n + vx)
			if int(v) == u || contains(links, v) {
				continue
			}
			links = append(links, v)
		}
		nw.long[u] = links
	}
	return nw, nil
}

// diamondPoint returns the k-th point (k in [0,4d)) on the Manhattan
// circle of radius d centred at (x,y), walking the diamond edge by edge.
func diamondPoint(x, y, d, k int) (int, int) {
	side := k / d // which of the 4 edges
	off := k % d  // position along it
	switch side {
	case 0: // north-east edge: (x, y-d) -> (x+d, y)
		return x + off, y - d + off
	case 1: // south-east edge: (x+d, y) -> (x, y+d)
		return x + d - off, y + off
	case 2: // south-west edge: (x, y+d) -> (x-d, y)
		return x - off, y + d - off
	default: // north-west edge: (x-d, y) -> (x, y-d)
		return x - d + off, y - off
	}
}

func contains(xs []int32, x int32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.cfg.Side * nw.cfg.Side }

// Coord returns node u's grid coordinates.
func (nw *Network) Coord(u int) (x, y int) { return u % nw.cfg.Side, u / nw.cfg.Side }

// Dist returns the Manhattan distance between nodes u and v.
func (nw *Network) Dist(u, v int) int {
	ux, uy := nw.Coord(u)
	vx, vy := nw.Coord(v)
	return abs(ux-vx) + abs(uy-vy)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// neighbors appends u's lattice neighbours to buf and returns it.
func (nw *Network) neighbors(u int, buf []int32) []int32 {
	n := nw.cfg.Side
	x, y := nw.Coord(u)
	if x > 0 {
		buf = append(buf, int32(u-1))
	}
	if x < n-1 {
		buf = append(buf, int32(u+1))
	}
	if y > 0 {
		buf = append(buf, int32(u-n))
	}
	if y < n-1 {
		buf = append(buf, int32(u+n))
	}
	return buf
}

// RouteGreedy routes from src to dst by Manhattan-distance-minimising
// greedy forwarding over lattice and long-range links. With lattice
// links always present, greedy always arrives; the hop count is the
// quantity Kleinberg's theorem bounds.
func (nw *Network) RouteGreedy(src, dst int) (hops int) {
	cur := src
	var buf [8]int32
	for cur != dst {
		dCur := nw.Dist(cur, dst)
		cands := nw.neighbors(cur, buf[:0])
		cands = append(cands, nw.long[cur]...)
		best, bestD := -1, dCur
		for _, v := range cands {
			if d := nw.Dist(int(v), dst); d < bestD {
				best, bestD = int(v), d
			}
		}
		// A lattice neighbour always strictly improves the Manhattan
		// distance, so best is never -1 while cur != dst.
		cur = best
		hops++
	}
	return hops
}
