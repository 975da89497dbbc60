// Package can implements a Content-Addressable Network (Ratnasamy et
// al., SIGCOMM 2001 — the paper's reference [13]): the d-dimensional
// unit cube is partitioned into one zone per node; a joining node picks a
// point, the zone containing it splits in half along its longest side,
// and routing forwards greedily through bordering zones toward the
// target point.
//
// The paper's introduction claims that CAN's zone partitioning cannot
// guarantee the number of overlay hops when zones become arbitrarily
// unbalanced under skewed key distributions. This package reproduces
// that: joins driven by a skewed density produce runt zones whose
// traversal inflates path lengths beyond the uniform-case O(d·N^(1/d)).
//
// The implementation uses a bounded box rather than CAN's torus; this
// changes routing constants but not the skew-degradation behaviour under
// study, and is documented as a deliberate simplification.
package can

import (
	"fmt"
	"math"

	"smallworld/dist"
	"smallworld/xrand"
)

// MaxDims bounds the supported dimensionality.
const MaxDims = 3

// Point is a location in the unit cube (only the first Dims coordinates
// are meaningful).
type Point [MaxDims]float64

// Zone is an axis-aligned box [Lo[i], Hi[i]) per dimension.
type Zone struct {
	Lo, Hi Point
}

// Contains reports whether p lies in the zone (first dims coordinates).
func (z Zone) Contains(p Point, dims int) bool {
	for i := 0; i < dims; i++ {
		if p[i] < z.Lo[i] || p[i] >= z.Hi[i] {
			return false
		}
	}
	return true
}

// Center returns the zone's midpoint.
func (z Zone) Center(dims int) Point {
	var c Point
	for i := 0; i < dims; i++ {
		c[i] = (z.Lo[i] + z.Hi[i]) / 2
	}
	return c
}

// distTo returns the Euclidean distance from the zone (its nearest
// point) to p.
func (z Zone) distTo(p Point, dims int) float64 {
	var sum float64
	for i := 0; i < dims; i++ {
		switch {
		case p[i] < z.Lo[i]:
			d := z.Lo[i] - p[i]
			sum += d * d
		case p[i] >= z.Hi[i]:
			d := p[i] - z.Hi[i]
			sum += d * d
		}
	}
	return math.Sqrt(sum)
}

// touches reports whether two zones share a (dims-1)-dimensional border:
// abutting in exactly one dimension and overlapping in all others.
func touches(a, b Zone, dims int) bool {
	abut := 0
	for i := 0; i < dims; i++ {
		switch {
		case a.Hi[i] == b.Lo[i] || b.Hi[i] == a.Lo[i]:
			abut++
		case a.Lo[i] < b.Hi[i] && b.Lo[i] < a.Hi[i]:
			// positive-measure overlap in this dimension
		default:
			return false
		}
	}
	return abut == 1
}

// Config describes a CAN overlay.
type Config struct {
	// N is the number of nodes (>= 1).
	N int
	// Dims is the dimensionality d in [1, MaxDims]. Default 2.
	Dims int
	// Dist is the density of the first coordinate of join points (the
	// skewed "key" dimension); remaining coordinates are uniform.
	// Default uniform.
	Dist dist.Distribution
	// Seed drives all randomness.
	Seed uint64
}

// Network is a built CAN overlay; node i owns zones[i].
type Network struct {
	cfg       Config
	zones     []Zone
	neighbors [][]int32
}

// Build constructs the overlay by simulating n sequential joins.
func Build(cfg Config) (*Network, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("can: N = %d, need >= 1", cfg.N)
	}
	if cfg.Dims == 0 {
		cfg.Dims = 2
	}
	if cfg.Dims < 1 || cfg.Dims > MaxDims {
		return nil, fmt.Errorf("can: dims = %d outside [1,%d]", cfg.Dims, MaxDims)
	}
	if cfg.Dist == nil {
		cfg.Dist = dist.Uniform{}
	}
	rng := xrand.New(cfg.Seed)
	nw := &Network{cfg: cfg}
	first := Zone{}
	for i := 0; i < cfg.Dims; i++ {
		first.Hi[i] = 1
	}
	nw.zones = append(nw.zones, first)
	for i := 1; i < cfg.N; i++ {
		p := nw.samplePoint(rng)
		target := nw.zoneContaining(p)
		nw.splitZone(target)
	}
	nw.rebuildNeighbors()
	return nw, nil
}

// samplePoint draws a join point: skewed first coordinate, uniform rest.
func (nw *Network) samplePoint(rng *xrand.Stream) Point {
	var p Point
	p[0] = float64(dist.Sample(nw.cfg.Dist, rng))
	for i := 1; i < nw.cfg.Dims; i++ {
		p[i] = rng.Float64()
	}
	return p
}

// zoneContaining returns the index of the zone containing p.
func (nw *Network) zoneContaining(p Point) int {
	for i, z := range nw.zones {
		if z.Contains(p, nw.cfg.Dims) {
			return i
		}
	}
	panic(fmt.Sprintf("can: no zone contains %v", p))
}

// splitZone halves zone i along its longest side; the new node takes the
// upper half.
func (nw *Network) splitZone(i int) {
	z := nw.zones[i]
	dims := nw.cfg.Dims
	splitDim := 0
	widest := z.Hi[0] - z.Lo[0]
	for d := 1; d < dims; d++ {
		if w := z.Hi[d] - z.Lo[d]; w > widest {
			widest, splitDim = w, d
		}
	}
	mid := (z.Lo[splitDim] + z.Hi[splitDim]) / 2
	upper := z
	upper.Lo[splitDim] = mid
	nw.zones[i].Hi[splitDim] = mid
	nw.zones = append(nw.zones, upper)
}

// rebuildNeighbors recomputes zone adjacency.
func (nw *Network) rebuildNeighbors() {
	n := len(nw.zones)
	nw.neighbors = make([][]int32, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if touches(nw.zones[i], nw.zones[j], nw.cfg.Dims) {
				nw.neighbors[i] = append(nw.neighbors[i], int32(j))
				nw.neighbors[j] = append(nw.neighbors[j], int32(i))
			}
		}
	}
}

// N returns the number of nodes.
func (nw *Network) N() int { return len(nw.zones) }

// Zone returns node u's zone.
func (nw *Network) Zone(u int) Zone { return nw.zones[u] }

// Links returns the indices of the zones bordering node u's zone. The
// slice must not be modified.
func (nw *Network) Links(u int) []int32 { return nw.neighbors[u] }

// Dims returns the dimensionality of the cube.
func (nw *Network) Dims() int { return nw.cfg.Dims }

// Lookup routes a query for point p from node src by greedy forwarding
// to the bordering zone closest to p (nearest-point distance, which
// strictly decreases because zones tile the cube). Returns hops and the
// owner reached.
func (nw *Network) Lookup(src int, p Point) (hops, owner int) {
	cur := src
	dims := nw.cfg.Dims
	for step := 0; step <= len(nw.zones); step++ {
		if nw.zones[cur].Contains(p, dims) {
			return hops, cur
		}
		dCur := nw.zones[cur].distTo(p, dims)
		best, bestD := -1, dCur
		for _, v := range nw.neighbors[cur] {
			if d := nw.zones[v].distTo(p, dims); d < bestD {
				best, bestD = int(v), d
			}
		}
		if best == -1 {
			// No strictly closer bordering zone. Because zones tile the
			// cube this only happens for measure-zero tie geometries;
			// stop rather than risk a cycle.
			return hops, cur
		}
		cur = best
		hops++
	}
	panic(fmt.Sprintf("can: lookup for %v from %d did not converge", p, src))
}

// Widths returns the per-zone widths along the skewed dimension,
// a direct view of how unbalanced the partition has become.
func (nw *Network) Widths() []float64 {
	w := make([]float64, len(nw.zones))
	for i, z := range nw.zones {
		w[i] = z.Hi[0] - z.Lo[0]
	}
	return w
}
