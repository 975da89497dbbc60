package wattsstrogatz

import (
	"testing"

	"smallworld/xrand"
)

func mustBuild(t *testing.T, cfg Config) *Network {
	t.Helper()
	nw, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return nw
}

func TestBuildValidation(t *testing.T) {
	cases := []Config{
		{N: 2, K: 2},
		{N: 16, K: 3},  // odd K
		{N: 16, K: 0},  //
		{N: 16, K: 16}, // K >= N
		{N: 16, K: 4, P: 1.5},
		{N: 16, K: 4, P: -0.1},
	}
	for i, cfg := range cases {
		if _, err := Build(cfg); err == nil {
			t.Errorf("case %d should fail: %+v", i, cfg)
		}
	}
}

func TestRegularLattice(t *testing.T) {
	nw := mustBuild(t, Config{N: 16, K: 4, P: 0, Seed: 1})
	// Every node connects to its two successors (and receives the two
	// reverse edges): total out-degree 4.
	for u := 0; u < 16; u++ {
		if d := len(nw.CSR().Out(u)); d != 4 {
			t.Fatalf("node %d degree %d, want 4", u, d)
		}
		if !nw.CSR().HasEdge(u, (u+1)%16) || !nw.CSR().HasEdge(u, (u+2)%16) {
			t.Fatalf("node %d missing lattice edges", u)
		}
	}
}

func TestLatticeClusteringHigh(t *testing.T) {
	nw := mustBuild(t, Config{N: 256, K: 6, P: 0, Seed: 2})
	c, _ := nw.Stats(xrand.New(3), 32)
	// A K=6 ring lattice has clustering 0.6.
	if c < 0.55 || c > 0.65 {
		t.Errorf("lattice clustering = %v, want ~0.6", c)
	}
}

func TestSmallWorldRegime(t *testing.T) {
	// The classic WS result: modest rewiring slashes path length while
	// clustering stays high; full rewiring destroys clustering too.
	const n, k = 512, 8
	lattice := mustBuild(t, Config{N: n, K: k, P: 0, Seed: 4})
	sw := mustBuild(t, Config{N: n, K: k, P: 0.05, Seed: 4})
	random := mustBuild(t, Config{N: n, K: k, P: 1, Seed: 4})

	cL, lL := lattice.Stats(xrand.New(5), 24)
	cS, lS := sw.Stats(xrand.New(5), 24)
	cR, lR := random.Stats(xrand.New(5), 24)

	if lS > 0.5*lL {
		t.Errorf("p=0.05 path length %v should be far below lattice %v", lS, lL)
	}
	if cS < 0.6*cL {
		t.Errorf("p=0.05 clustering %v should stay near lattice %v", cS, cL)
	}
	if cR > 0.5*cS {
		t.Errorf("p=1 clustering %v should collapse below %v", cR, cS)
	}
	if lR > lS {
		t.Errorf("p=1 path length %v should not exceed p=0.05 %v", lR, lS)
	}
}

func TestGreedyRoutingInefficient(t *testing.T) {
	// Kleinberg's point (the paper's Background): WS short paths exist
	// but greedy routing cannot find them — greedy hop counts stay far
	// above the BFS path length.
	const n, k = 512, 8
	nw := mustBuild(t, Config{N: n, K: k, P: 0.1, Seed: 6})
	_, bfsPath := nw.Stats(xrand.New(7), 24)
	r := xrand.New(8)
	var total, arrived, hopSum int
	for i := 0; i < 400; i++ {
		src, dst := r.Intn(n), r.Intn(n)
		hops, ok := nw.RouteGreedy(src, dst)
		total++
		if ok {
			arrived++
			hopSum += hops
		}
	}
	if arrived == 0 {
		t.Fatal("greedy never arrived")
	}
	greedyMean := float64(hopSum) / float64(arrived)
	if greedyMean < 2*bfsPath {
		t.Errorf("greedy (%.1f hops) should be clearly worse than BFS (%.1f) on WS graphs",
			greedyMean, bfsPath)
	}
}

func TestRouteGreedyToSelf(t *testing.T) {
	nw := mustBuild(t, Config{N: 32, K: 4, P: 0.2, Seed: 9})
	if hops, ok := nw.RouteGreedy(5, 5); hops != 0 || !ok {
		t.Error("route to self should be free")
	}
}

func TestDeterministic(t *testing.T) {
	a := mustBuild(t, Config{N: 128, K: 4, P: 0.3, Seed: 10})
	b := mustBuild(t, Config{N: 128, K: 4, P: 0.3, Seed: 10})
	if a.CSR().M() != b.CSR().M() {
		t.Fatal("edge counts differ for equal seeds")
	}
	for u := 0; u < a.N(); u++ {
		for _, v := range a.CSR().Out(u) {
			if !b.CSR().HasEdge(u, int(v)) {
				t.Fatal("edges differ for equal seeds")
			}
		}
	}
}

func TestKeySpacing(t *testing.T) {
	nw := mustBuild(t, Config{N: 10, K: 2, P: 0, Seed: 11})
	if nw.Key(0) != 0 || nw.Key(5) != 0.5 {
		t.Error("keys should be evenly spaced ring positions")
	}
}
