package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"smallworld/xrand"
)

// fromEdges builds a CSR over n nodes from a directed edge list: each
// edge is appended to its source's row, then every row is sorted and
// deduplicated, and self-loops are dropped.
func fromEdges(n int, edges [][2]int) *CSR {
	rows := make([][]int32, n)
	for _, e := range edges {
		if e[0] != e[1] {
			rows[e[0]] = append(rows[e[0]], int32(e[1]))
		}
	}
	offsets := make([]int32, n+1)
	var targets []int32
	for u, row := range rows {
		slices.Sort(row)
		targets = append(targets, slices.Compact(row)...)
		offsets[u+1] = int32(len(targets))
	}
	return NewCSR(offsets, targets)
}

// ring builds the directed n-ring u -> u+1 (mod n).
func ring(n int) *CSR {
	edges := make([][2]int, n)
	for i := range edges {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	return fromEdges(n, edges)
}

// randomGraph builds a random graph over 2..31 nodes from ~4n random
// edges for property tests.
func randomGraph(seed uint64) *CSR {
	r := xrand.New(seed)
	n := 2 + r.Intn(30)
	edges := make([][2]int, 4*n)
	for i := range edges {
		edges[i] = [2]int{r.Intn(n), r.Intn(n)}
	}
	return fromEdges(n, edges)
}

func TestNewAndCounts(t *testing.T) {
	g := fromEdges(5, nil)
	if g.N() != 5 || g.M() != 0 {
		t.Errorf("N,M = %d,%d want 5,0", g.N(), g.M())
	}
}

func TestNewPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AssembleCSR(-1) did not panic")
		}
	}()
	AssembleCSR(-1, 1, func(int) int { return 0 }, func(int, []int32) {})
}

// TestBoundsPanic pins NewCSR's shape check: offsets must start at zero
// and end at len(targets).
func TestBoundsPanic(t *testing.T) {
	for _, tc := range []struct {
		offsets, targets []int32
	}{
		{nil, nil},
		{[]int32{1, 1}, []int32{0}},
		{[]int32{0, 1, 3}, []int32{1, 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCSR(%v, %v) did not panic", tc.offsets, tc.targets)
				}
			}()
			NewCSR(tc.offsets, tc.targets)
		}()
	}
}

func TestOutAndDegree(t *testing.T) {
	g := fromEdges(4, [][2]int{{0, 1}, {0, 3}})
	if len(g.Out(0)) != 2 || len(g.Out(1)) != 0 {
		t.Error("out degrees wrong")
	}
	if out := g.Out(0); out[0] != 1 || out[1] != 3 {
		t.Errorf("Out(0) = %v, want [1 3]", out)
	}
}

// TestOutRowsSorted pins AssembleCSR's in-place row sort, which the
// Watts–Strogatz builder relies on: rows filled in any order come out
// ascending, on the short insertion-sort path and the long one.
func TestOutRowsSorted(t *testing.T) {
	rows := [][]int32{{4, 1, 3}, nil, {0}, make([]int32, 40), {2, 1}}
	for i := range rows[3] {
		rows[3][i] = int32(40 - i)
	}
	c := AssembleCSR(len(rows), 2,
		func(u int) int { return len(rows[u]) },
		func(u int, row []int32) { copy(row, rows[u]) },
	)
	for u := range rows {
		want := slices.Sorted(slices.Values(rows[u]))
		if got := c.Out(u); !slices.Equal(got, want) {
			t.Fatalf("row %d = %v, want %v", u, got, want)
		}
	}
}

func TestBFSRing(t *testing.T) {
	d := ring(6).BFSWith(0, &Scratch{})
	want := []int{0, 1, 2, 3, 4, 5}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("BFS dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	d := fromEdges(3, [][2]int{{0, 1}}).BFSWith(0, &Scratch{})
	if d[2] != -1 {
		t.Errorf("unreachable node distance = %d, want -1", d[2])
	}
}

func TestReverse(t *testing.T) {
	g := fromEdges(3, [][2]int{{0, 1}, {1, 2}})
	r := g.ReverseWith(&Scratch{})
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 1) || r.HasEdge(0, 1) {
		t.Error("Reverse wrong")
	}
	if r.M() != g.M() {
		t.Error("Reverse changed edge count")
	}
}

func TestStronglyConnected(t *testing.T) {
	if !ring(10).StronglyConnectedWith(&Scratch{}) {
		t.Error("directed ring must be strongly connected")
	}
	if fromEdges(3, [][2]int{{0, 1}, {1, 2}}).StronglyConnectedWith(&Scratch{}) {
		t.Error("path graph is not strongly connected")
	}
	if !fromEdges(0, nil).StronglyConnectedWith(&Scratch{}) || !fromEdges(1, nil).StronglyConnectedWith(&Scratch{}) {
		t.Error("trivial graphs are connected")
	}
}

func TestDegreeStats(t *testing.T) {
	s := ring(8).DegreeStats()
	if s.Mean() != 1 || s.Min() != 1 || s.Max() != 1 {
		t.Errorf("ring degree stats = %v", s.String())
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Complete directed triangle: clustering = 1.
	var tri [][2]int
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			tri = append(tri, [2]int{u, v})
		}
	}
	if c := fromEdges(3, tri).ClusteringCoefficient(); c != 1 {
		t.Errorf("triangle clustering = %v, want 1", c)
	}
	// Star: hub's neighbours unconnected -> clustering 0.
	star := fromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	if c := star.ClusteringCoefficient(); c != 0 {
		t.Errorf("star clustering = %v, want 0", c)
	}
	if fromEdges(0, nil).ClusteringCoefficient() != 0 {
		t.Error("empty graph clustering should be 0")
	}
}

func TestPathLengthStatsRing(t *testing.T) {
	s, maxD := ring(16).PathLengthStatsWith(xrand.New(1), 16, &Scratch{})
	// On a directed 16-ring, distances from any source are 1..15, mean 8.
	if d := s.Mean() - 8; d > 1e-9 || d < -1e-9 {
		t.Errorf("mean path length = %v, want 8", s.Mean())
	}
	if maxD != 15 {
		t.Errorf("max distance = %d, want 15", maxD)
	}
}

func TestPathLengthStatsEmpty(t *testing.T) {
	s, maxD := fromEdges(0, nil).PathLengthStatsWith(xrand.New(1), 4, &Scratch{})
	if s.N() != 0 || maxD != 0 {
		t.Error("empty graph should yield empty stats")
	}
}

func TestPathLengthSamplesClamped(t *testing.T) {
	s, _ := ring(4).PathLengthStatsWith(xrand.New(1), 100, &Scratch{}) // more samples than nodes
	if s.N() != 4*3 {
		t.Errorf("expected all-pairs coverage, got %d observations", s.N())
	}
}

// Property: Reverse(Reverse(g)) preserves the edge set.
func TestReverseInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed)
		rr := g.ReverseWith(&Scratch{}).ReverseWith(&Scratch{})
		if rr.M() != g.M() {
			return false
		}
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Out(u) {
				if !rr.HasEdge(u, int(v)) {
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

// Property: BFS distances obey the triangle property along edges:
// dist[v] <= dist[u]+1 for every edge u->v with dist[u] >= 0.
func TestBFSEdgeConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed)
		d := g.BFSWith(0, &Scratch{})
		for u := 0; u < g.N(); u++ {
			if d[u] < 0 {
				continue
			}
			for _, v := range g.Out(u) {
				if d[v] < 0 || d[v] > d[u]+1 {
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
