package smallworld

import (
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

func routesEqual(a, b Route) bool {
	if a.Arrived != b.Arrived || a.Truncated != b.Truncated || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

func TestRouterMatchesNetworkRouting(t *testing.T) {
	for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
		cfg := SkewedConfig(512, dist.NewPower(0.7), 71)
		cfg.Topology = topo
		nw := mustBuild(t, cfg)
		router := nw.NewRouter()
		r := xrand.New(72)
		for i := 0; i < 300; i++ {
			src := r.Intn(nw.N())
			target := keyspace.Key(r.Float64())
			a := nw.RouteGreedy(src, target)
			b := router.RouteGreedy(src, target)
			if !routesEqual(a, b) {
				t.Fatalf("%v: router route differs: %v vs %v", topo, a, b)
			}
		}
	}
}

func TestRouterScratchReuseIsSafe(t *testing.T) {
	// Back-to-back calls on one router must not corrupt results; only the
	// previously returned Path aliases are invalidated.
	nw := mustBuild(t, UniformConfig(256, 73))
	router := nw.NewRouter()
	r := xrand.New(74)
	for i := 0; i < 100; i++ {
		src, dst := r.Intn(nw.N()), r.Intn(nw.N())
		got := router.RouteGreedy(src, nw.Key(dst))
		want := nw.RouteToNode(src, dst)
		if !routesEqual(got, want) {
			t.Fatalf("call %d: %v vs %v", i, got, want)
		}
		if got.Path[0] != src {
			t.Fatalf("path does not start at src")
		}
	}
}

func TestRouteGreedyZeroAllocSteadyState(t *testing.T) {
	cfg := UniformConfig(1024, 75)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	router := nw.NewRouter()
	r := xrand.New(76)
	srcs := make([]int, 64)
	dsts := make([]int, 64)
	for i := range srcs {
		srcs[i], dsts[i] = r.Intn(nw.N()), r.Intn(nw.N())
	}
	// Warm the scratch to its steady-state capacity on the same queries.
	for i := range srcs {
		router.RouteGreedy(srcs[i], nw.Key(dsts[i]))
	}
	i := 0
	allocs := testing.AllocsPerRun(64, func() {
		router.RouteGreedy(srcs[i%64], nw.Key(dsts[i%64]))
		i++
	})
	if allocs != 0 {
		t.Errorf("RouteGreedy allocates %.1f objects/op in steady state, want 0", allocs)
	}
}
