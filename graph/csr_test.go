package graph

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"smallworld/xrand"
)

// Property: a CSR's rows are sorted, and HasEdge answers exactly the
// edge set it was built from (self-loops and repeats dropped).
func TestCSRMatchesEdgeList(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(30)
		edges := make([][2]int, 4*n)
		set := map[[2]int]bool{}
		for i := range edges {
			edges[i] = [2]int{r.Intn(n), r.Intn(n)}
			if edges[i][0] != edges[i][1] {
				set[edges[i]] = true
			}
		}
		c := fromEdges(n, edges)
		if c.N() != n || c.M() != len(set) {
			return false
		}
		for u := 0; u < n; u++ {
			if !slices.IsSorted(c.Out(u)) {
				return false
			}
			for v := 0; v < n; v++ {
				if c.HasEdge(u, v) != set[[2]int{u, v}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCSRReverse(t *testing.T) {
	f := func(seed uint64) bool {
		c := randomGraph(seed)
		r := c.ReverseWith(&Scratch{})
		if r.M() != c.M() {
			return false
		}
		for u := 0; u < c.N(); u++ {
			if !slices.IsSorted(r.Out(u)) {
				return false
			}
			for _, v := range c.Out(u) {
				if !r.HasEdge(int(v), u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// varyingGraph builds a random graph over 2..31 nodes from 0..4n random
// edges, so the set spans sparse, disconnected graphs as well as dense,
// strongly connected ones.
func varyingGraph(seed uint64) *CSR {
	r := xrand.New(seed)
	n := 2 + r.Intn(30)
	edges := make([][2]int, r.Intn(4*n+1))
	for i := range edges {
		edges[i] = [2]int{r.Intn(n), r.Intn(n)}
	}
	return fromEdges(n, edges)
}

// allPairsHops is the Floyd–Warshall reference for the BFS-based
// analyses: hop distance from i to j, -1 when j is unreachable from i.
func allPairsHops(c *CSR) [][]int {
	n := c.N()
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = -1
			}
		}
		for _, v := range c.Out(i) {
			d[i][v] = 1
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if d[i][k] < 0 {
				continue
			}
			for j := 0; j < n; j++ {
				if d[k][j] < 0 {
					continue
				}
				if h := d[i][k] + d[k][j]; d[i][j] < 0 || h < d[i][j] {
					d[i][j] = h
				}
			}
		}
	}
	return d
}

// Property: StronglyConnectedWith, reusing one Scratch across graphs,
// agrees with the all-pairs reachability closure.
func TestCSRStronglyConnected(t *testing.T) {
	var sc Scratch
	seen := map[bool]int{}
	for seed := uint64(0); seed < 200; seed++ {
		c := varyingGraph(seed)
		want := true
		for _, row := range allPairsHops(c) {
			if slices.Contains(row, -1) {
				want = false
			}
		}
		if got := c.StronglyConnectedWith(&sc); got != want {
			t.Fatalf("seed %d: StronglyConnected = %v, want %v", seed, got, want)
		}
		seen[want]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("graph set lacks one outcome: %v", seen)
	}
}

// Property: ClusteringCoefficient equals the directed local clustering
// definition — per node with k >= 2 out-neighbours, the share of the
// k(k-1) ordered neighbour pairs (v, w) with an edge v->w, averaged over
// all n nodes — computed from an adjacency matrix.
func TestCSRClusteringMatchesDefinition(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		c := varyingGraph(seed)
		n := c.N()
		adj := make([][]bool, n)
		for u := range adj {
			adj[u] = make([]bool, n)
			for _, v := range c.Out(u) {
				adj[u][v] = true
			}
		}
		var total float64
		for u := 0; u < n; u++ {
			var nbrs []int
			for v := 0; v < n; v++ {
				if adj[u][v] {
					nbrs = append(nbrs, v)
				}
			}
			k := len(nbrs)
			if k < 2 {
				continue
			}
			links := 0
			for _, v := range nbrs {
				for _, w := range nbrs {
					if v != w && adj[v][w] {
						links++
					}
				}
			}
			total += float64(links) / float64(k*(k-1))
		}
		want := total / float64(n)
		if got := c.ClusteringCoefficient(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("seed %d: clustering = %v, want %v", seed, got, want)
		}
	}
}

// Property: with one sample per node, PathLengthStatsWith, reusing one
// Scratch across graphs, sees every reachable ordered pair once: its
// count, mean and maximum match the all-pairs reference.
func TestCSRPathLengthStats(t *testing.T) {
	var sc Scratch
	for seed := uint64(0); seed < 200; seed++ {
		c := varyingGraph(seed)
		var pairs, sum, farthest int
		for _, row := range allPairsHops(c) {
			for _, h := range row {
				if h > 0 {
					pairs++
					sum += h
					farthest = max(farthest, h)
				}
			}
		}
		s, maxD := c.PathLengthStatsWith(xrand.New(seed), c.N(), &sc)
		if s.N() != pairs || maxD != farthest {
			t.Fatalf("seed %d: %d pairs, max %d; want %d, %d", seed, s.N(), maxD, pairs, farthest)
		}
		if pairs > 0 {
			if want := float64(sum) / float64(pairs); math.Abs(s.Mean()-want) > 1e-9*want {
				t.Fatalf("seed %d: mean path length = %v, want %v", seed, s.Mean(), want)
			}
		}
	}
}
