// Package graph holds the directed-graph substrate of the overlays:
// the flat compressed-sparse-row adjacency (CSR) every router and
// analysis reads, its direct two-pass assembly (AssembleCSR), and the
// analyses the experiments run on it — BFS distances, strong
// connectivity, clustering coefficients, and degree/path-length
// summaries. Overlay networks in the paper are directed graphs
// G = (P, E) whose edges are routing-table entries, so all analysis
// here is directed.
package graph

import (
	"smallworld/metrics"
	"smallworld/xrand"
)

// CSR is an immutable compressed-sparse-row snapshot of a directed
// graph: the out-neighbours of node u are targets[offsets[u]:offsets[u+1]],
// sorted ascending. Two flat arrays mean traversals touch memory
// sequentially with no per-node pointer chasing — the representation
// every routing and analysis hot path iterates.
//
// int32 indices halve the memory footprint of the adjacency structure
// and keep a whole row in one or two cache lines for logarithmic-degree
// overlays; they cap the graph at 2^31-1 nodes and edges, far beyond the
// experiment sweeps.
type CSR struct {
	offsets []int32 // len N+1
	targets []int32 // len M, rows sorted ascending
}

// NewCSR wraps pre-assembled offset/target arrays as a CSR. offsets must
// have one entry per node plus a trailing total, start at zero, be
// nondecreasing, and end at len(targets); each row must be sorted
// ascending. Callers that keep adjacency in another layout (the
// overlaynet snapshots' row blocks) materialise into this form for
// analysis. The slices are adopted, not copied.
func NewCSR(offsets, targets []int32) *CSR {
	if len(offsets) == 0 || offsets[0] != 0 || int(offsets[len(offsets)-1]) != len(targets) {
		panic("graph: malformed CSR offsets")
	}
	return &CSR{offsets: offsets, targets: targets}
}

// N returns the number of nodes.
func (c *CSR) N() int { return len(c.offsets) - 1 }

// M returns the number of directed edges.
func (c *CSR) M() int { return len(c.targets) }

// Out returns the sorted out-neighbour row of u. The slice aliases the
// CSR's storage and must not be modified.
func (c *CSR) Out(u int) []int32 {
	return c.targets[c.offsets[u]:c.offsets[u+1]]
}

// RowStart returns the index into the flat edge array where u's row
// begins: edge j of Out(u) is global edge RowStart(u)+j. Per-edge
// side tables (e.g. obs link-traffic counters) are addressed this way.
func (c *CSR) RowStart(u int) int { return int(c.offsets[u]) }

// HasEdge reports whether the directed edge u -> v exists (binary search
// on the sorted row).
func (c *CSR) HasEdge(u, v int) bool {
	row := c.Out(u)
	i := searchInt32(row, int32(v))
	return i < len(row) && row[i] == int32(v)
}

// searchInt32 returns the insertion index of v in the sorted row.
func searchInt32(row []int32, v int32) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Scratch holds the reusable buffers of the BFS/Reverse analysis
// family, so repeated analyses (connectivity sweeps, path-length
// sampling at 2^22) run without per-call O(N+M) allocations. A zero
// Scratch is ready to use; buffers grow on demand and are retained.
// Not safe for concurrent use — hold one per goroutine.
type Scratch struct {
	dist  []int
	queue []int32

	// Reverse buffers: ReverseWith returns a CSR backed by these, so
	// the result is only valid until the next ReverseWith on the same
	// Scratch. Analyses that need the transpose to outlive the scratch
	// must use Reverse().
	revOffsets []int32
	revTargets []int32
	fill       []int32
}

// bfsBuffers returns dist/queue sized for n nodes.
func (s *Scratch) bfsBuffers(n int) ([]int, []int32) {
	if cap(s.dist) < n {
		s.dist = make([]int, n)
	}
	s.dist = s.dist[:n]
	if cap(s.queue) < n {
		s.queue = make([]int32, 0, n)
	}
	return s.dist, s.queue[:0]
}

// ReverseWith returns the CSR with every edge flipped, built in s's
// buffers with a counting pass over the offsets, so rows come out sorted
// without an extra sort. The returned CSR aliases the scratch and is
// overwritten by the next ReverseWith on s.
func (c *CSR) ReverseWith(s *Scratch) *CSR {
	n, m := c.N(), len(c.targets)
	if cap(s.revOffsets) < n+1 {
		s.revOffsets = make([]int32, n+1)
	}
	s.revOffsets = s.revOffsets[:n+1]
	for i := range s.revOffsets {
		s.revOffsets[i] = 0
	}
	if cap(s.revTargets) < m {
		s.revTargets = make([]int32, m)
	}
	s.revTargets = s.revTargets[:m]
	if cap(s.fill) < n {
		s.fill = make([]int32, n)
	}
	s.fill = s.fill[:n]
	r := &CSR{offsets: s.revOffsets, targets: s.revTargets}
	for _, v := range c.targets {
		r.offsets[v+1]++
	}
	for u := 0; u < n; u++ {
		r.offsets[u+1] += r.offsets[u]
	}
	// fill points at the next free slot of each reversed row.
	copy(s.fill, r.offsets[:n])
	for u := 0; u < n; u++ {
		for _, v := range c.Out(u) {
			r.targets[s.fill[v]] = int32(u)
			s.fill[v]++
		}
	}
	return r
}

// BFSWith returns hop distances from src to every node (-1 if
// unreachable), computed in s's buffers. The returned slice aliases the
// scratch and is overwritten by the next BFSWith on s.
func (c *CSR) BFSWith(src int, s *Scratch) []int {
	dist, queue := s.bfsBuffers(c.N())
	c.bfsInto(src, dist, queue)
	return dist
}

// bfsInto runs BFS reusing caller-owned scratch: dist (len N, overwritten)
// and queue (capacity N, length reset). It lets repeated-BFS analyses run
// without per-source allocations.
func (c *CSR) bfsInto(src int, dist []int, queue []int32) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range c.targets[c.offsets[u]:c.offsets[u+1]] {
			if dist[v] == -1 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
}

// StronglyConnectedWith reports whether every node can reach every
// other node, searching in s's buffers. It runs forward and reverse BFS
// from node 0 (Kosaraju-style check), which is exact for strong
// connectivity. An empty graph is connected; a single node is connected.
func (c *CSR) StronglyConnectedWith(s *Scratch) bool {
	if c.N() <= 1 {
		return true
	}
	for _, d := range c.BFSWith(0, s) {
		if d == -1 {
			return false
		}
	}
	rev := c.ReverseWith(s)
	for _, d := range rev.BFSWith(0, s) {
		if d == -1 {
			return false
		}
	}
	return true
}

// DegreeStats summarises the out-degree distribution.
func (c *CSR) DegreeStats() metrics.Summary {
	var s metrics.Summary
	for u := 0; u < c.N(); u++ {
		s.Add(float64(c.offsets[u+1] - c.offsets[u]))
	}
	return s
}

// ClusteringCoefficient returns the mean local clustering coefficient:
// for each node with at least two out-neighbours, the fraction of ordered
// neighbour pairs (v,w) with an edge v -> w. Nodes with fewer than two
// out-neighbours contribute zero (Watts–Strogatz convention). Membership
// tests are binary searches on the sorted rows, so a node of degree k
// costs O(k² log k) instead of the k² linear scans of the naive form.
func (c *CSR) ClusteringCoefficient() float64 {
	n := c.N()
	if n == 0 {
		return 0
	}
	var total float64
	for u := 0; u < n; u++ {
		ns := c.Out(u)
		k := len(ns)
		if k < 2 {
			continue
		}
		links := 0
		for _, v := range ns {
			row := c.Out(int(v))
			for _, w := range ns {
				if v == w {
					continue
				}
				i := searchInt32(row, w)
				if i < len(row) && row[i] == w {
					links++
				}
			}
		}
		total += float64(links) / float64(k*(k-1))
	}
	return total / float64(n)
}

// PathLengthStatsWith estimates the shortest-path-length distribution
// by running BFS from `samples` random sources and aggregating distances
// to all reachable nodes. It also reports the largest distance seen (a
// lower bound on the diameter). It reuses sc's BFS buffers, so repeated
// analyses (a beta sweep, the E20 frontier at 2^22) don't allocate a
// fresh N-sized dist/queue pair per call.
func (c *CSR) PathLengthStatsWith(r *xrand.Stream, samples int, sc *Scratch) (s metrics.Summary, maxDist int) {
	n := c.N()
	if n == 0 || samples <= 0 {
		return
	}
	if samples > n {
		samples = n
	}
	dist, queue := sc.bfsBuffers(n)
	for _, src := range r.Perm(n)[:samples] {
		c.bfsInto(src, dist, queue)
		for v, d := range dist {
			if d <= 0 || v == src {
				continue
			}
			s.Add(float64(d))
			if d > maxDist {
				maxDist = d
			}
		}
	}
	return
}
