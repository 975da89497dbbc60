// Package symphony implements Symphony (Manku, Bawa, Raghavan,
// USITS 2003 — the paper's reference [9]): a ring overlay where every
// node keeps its ring neighbours plus k long links whose clockwise
// distance is drawn from the harmonic density p(x) ∝ 1/(x·ln n) on
// [1/n, 1]. Symphony is the constant-outdegree corner of the paper's
// small-world family and anchors the table-size ↔ search-cost trade-off
// of Section 3.1.
//
// The package also provides a Mercury mode (Bharambe, Agrawal, Seshan,
// SIGCOMM 2004 — reference [4]): the same harmonic draw applied to the
// *rank* (node-count) space rather than raw key distance. Rank space is
// the sampled approximation of the paper's probability-mass space, so
// Mercury is the heuristic instance of the paper's Model 2 and keeps
// routing efficient under skewed key distributions where classic
// Symphony degrades.
package symphony

import (
	"fmt"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// Mode selects the long-link selection rule.
type Mode int

const (
	// Classic draws the clockwise key-space distance of each long link
	// from the harmonic density on [1/n, 1] (Symphony's rule; assumes
	// uniformly distributed identifiers).
	Classic Mode = iota
	// Mercury draws a clockwise rank offset from the harmonic density on
	// [1, n] and links to the node that many positions ahead, adapting to
	// arbitrary identifier skew the way Mercury's sampling heuristic does.
	Mercury
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Classic:
		return "symphony"
	case Mercury:
		return "mercury"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes a Symphony/Mercury overlay.
type Config struct {
	// N is the number of nodes (>= 2).
	N int
	// K is the number of long links per node (Symphony's constant).
	K int
	// Mode selects Classic (key-space) or Mercury (rank-space) draws.
	Mode Mode
	// Dist is the identifier density (default uniform).
	Dist dist.Distribution
	// Seed drives all randomness.
	Seed uint64
}

// Network is a built Symphony/Mercury ring.
type Network struct {
	cfg  Config
	keys keyspace.Points
	out  [][]int32 // ring neighbours + long links per node
}

// Build constructs the overlay. It returns an error for invalid configs.
func Build(cfg Config) (*Network, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("symphony: N = %d, need >= 2", cfg.N)
	}
	if cfg.K < 0 {
		return nil, fmt.Errorf("symphony: negative K")
	}
	if cfg.Dist == nil {
		cfg.Dist = dist.Uniform{}
	}
	master := xrand.New(cfg.Seed)
	keys := dist.SampleN(cfg.Dist, master.Split(), cfg.N)
	pts := keyspace.SortPoints(keys)
	nw := &Network{cfg: cfg, keys: pts, out: make([][]int32, cfg.N)}
	n := cfg.N
	for u := 0; u < n; u++ {
		nw.out[u] = append(nw.out[u], int32((u+1)%n), int32((u+n-1)%n))
	}
	for u := 0; u < n; u++ {
		rng := xrand.New(master.Uint64())
		for i := 0; i < cfg.K; i++ {
			v := nw.drawLink(u, rng)
			if v >= 0 && v != u && !contains(nw.out[u], int32(v)) {
				nw.out[u] = append(nw.out[u], int32(v))
			}
		}
	}
	return nw, nil
}

func contains(xs []int32, x int32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// drawLink samples one long-link target for node u.
func (nw *Network) drawLink(u int, rng *xrand.Stream) int {
	n := nw.cfg.N
	switch nw.cfg.Mode {
	case Classic:
		// Harmonic key-space distance clockwise from u.
		x := rng.LogUniform(1/float64(n), 1)
		target := keyspace.Wrap(float64(nw.keys[u]) + x)
		return nw.keys.NearestExcluding(keyspace.Ring, target, u)
	case Mercury:
		// Harmonic rank offset clockwise from u.
		off := int(rng.LogUniform(1, float64(n)))
		if off < 1 {
			off = 1
		}
		if off >= n {
			off = n - 1
		}
		return (u + off) % n
	default:
		return -1
	}
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.cfg.N }

// Key returns node u's identifier.
func (nw *Network) Key(u int) keyspace.Key { return nw.keys[u] }

// TableSize returns the number of routing entries node u keeps.
func (nw *Network) TableSize(u int) int { return len(nw.out[u]) }

// Links returns node u's out-neighbours: ring neighbours plus long
// links. The slice must not be modified.
func (nw *Network) Links(u int) []int32 { return nw.out[u] }

// Owner returns the node whose identifier is closest to target on the
// ring.
func (nw *Network) Owner(target keyspace.Key) int {
	return nw.keys.Nearest(keyspace.Ring, target)
}

// Lookup greedily routes a query for target from src, returning the hop
// count and the node reached. Greedy distance-minimising routing with the
// exact key-order tie-break (keyspace.Topology.Improves) terminates
// at a node at minimal ring distance to the target.
func (nw *Network) Lookup(src int, target keyspace.Key) (hops, owner int) {
	cur := src
	dCur := keyspace.Ring.Distance(nw.keys[cur], target)
	for step := 0; step < 2*nw.cfg.N; step++ {
		best, bestD := -1, dCur
		bestKey := nw.keys[cur]
		for _, v := range nw.out[cur] {
			vKey := nw.keys[v]
			d := keyspace.Ring.Distance(vKey, target)
			if keyspace.Ring.Improves(bestKey, vKey, target, d, bestD) {
				best, bestD, bestKey = int(v), d, vKey
			}
		}
		if best == -1 {
			return hops, cur
		}
		cur, dCur = best, bestD
		hops++
	}
	return hops, cur
}
