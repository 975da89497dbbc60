package smallworld

import (
	"math"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/metrics"
	"smallworld/xrand"
)

// routeSample routes q random node-to-node queries and returns hop stats.
func routeSample(nw *Network, r *xrand.Stream, q int) metrics.Summary {
	var s metrics.Summary
	for i := 0; i < q; i++ {
		src := r.Intn(nw.N())
		dst := r.Intn(nw.N())
		rt := nw.RouteToNode(src, dst)
		if !rt.Arrived {
			panic("route did not arrive")
		}
		s.Add(float64(rt.Hops()))
	}
	return s
}

func TestGreedyAlwaysArrives(t *testing.T) {
	for _, topo := range []keyspace.Topology{keyspace.Line, keyspace.Ring} {
		for _, d := range []dist.Distribution{dist.Uniform{}, dist.NewPower(0.8)} {
			cfg := SkewedConfig(256, d, 21)
			cfg.Topology = topo
			nw := mustBuild(t, cfg)
			r := xrand.New(22)
			for i := 0; i < 200; i++ {
				src := r.Intn(nw.N())
				target := keyspace.Key(r.Float64())
				rt := nw.RouteGreedy(src, target)
				if rt.Truncated {
					t.Fatalf("%v/%s: route truncated", topo, d.Name())
				}
				if !rt.Arrived {
					t.Fatalf("%v/%s: route from %d to %v stopped at %d (closest %d)",
						topo, d.Name(), src, target, rt.Path[len(rt.Path)-1], nw.ClosestNode(target))
				}
			}
		}
	}
}

func TestGreedyDistanceMonotone(t *testing.T) {
	cfg := UniformConfig(512, 23)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	r := xrand.New(24)
	for i := 0; i < 100; i++ {
		target := keyspace.Key(r.Float64())
		rt := nw.RouteGreedy(r.Intn(nw.N()), target)
		prev := math.Inf(1)
		for _, u := range rt.Path {
			d := nw.cfg.Topology.Distance(nw.Key(u), target)
			if d >= prev {
				t.Fatalf("distance not strictly decreasing along path: %v then %v", prev, d)
			}
			prev = d
		}
	}
}

func TestRouteToSelf(t *testing.T) {
	cfg := UniformConfig(64, 25)
	nw := mustBuild(t, cfg)
	rt := nw.RouteToNode(7, 7)
	if rt.Hops() != 0 || !rt.Arrived {
		t.Errorf("route to self: hops=%d arrived=%v", rt.Hops(), rt.Arrived)
	}
}

func TestRouteHopsLogarithmic(t *testing.T) {
	// Theorem 1 sanity at a single size: mean hops well below the
	// pessimistic (1/c)·log2 N bound and far below sqrt(N).
	const n = 1024
	cfg := UniformConfig(n, 26)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	s := routeSample(nw, xrand.New(27), 2000)
	log2n := math.Log2(n)
	if s.Mean() > 3*log2n {
		t.Errorf("mean hops %v exceeds 3·log2 N = %v", s.Mean(), 3*log2n)
	}
	if s.Mean() < 1 {
		t.Errorf("implausibly small mean hops %v", s.Mean())
	}
}

func TestSkewedMatchesUniformHops(t *testing.T) {
	// Theorem 2 sanity: Model 2 on a heavily skewed density routes in
	// about the same hops as Model 1 on uniform keys.
	const n = 1024
	uniform := mustBuild(t, UniformConfig(n, 28))
	skewCfg := SkewedConfig(n, dist.NewPower(0.85), 28)
	skewed := mustBuild(t, skewCfg)
	hu := routeSample(uniform, xrand.New(29), 2000).Mean()
	hs := routeSample(skewed, xrand.New(29), 2000).Mean()
	if ratio := hs / hu; ratio > 1.3 || ratio < 0.7 {
		t.Errorf("skew-aware routing %.2f hops vs uniform %.2f (ratio %.2f), want parity", hs, hu, ratio)
	}
}

func TestObliviousConstructionDegrades(t *testing.T) {
	// The E3 baseline in miniature: geometric (skew-oblivious) weighting
	// on heavily skewed keys routes measurably worse than mass weighting.
	const n = 1024
	d := dist.NewPower(0.9)
	aware := mustBuild(t, SkewedConfig(n, d, 30))
	obliviousCfg := SkewedConfig(n, d, 30)
	obliviousCfg.Measure = Geometric
	oblivious := mustBuild(t, obliviousCfg)
	ha := routeSample(aware, xrand.New(31), 1500).Mean()
	ho := routeSample(oblivious, xrand.New(31), 1500).Mean()
	if ho < ha*1.2 {
		t.Errorf("skew-oblivious %.2f hops vs skew-aware %.2f: expected clear degradation", ho, ha)
	}
}

func TestRoutingSurvivesLinkFailure(t *testing.T) {
	cfg := UniformConfig(512, 34)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	r := xrand.New(35)
	degraded := nw.WithFailedLinks(r, 0.7)
	base := routeSample(nw, xrand.New(36), 500)
	hurt := routeSample(degraded, xrand.New(36), 500)
	if hurt.Mean() <= base.Mean() {
		t.Errorf("losing 70%% of long links should cost hops: %.2f vs %.2f", hurt.Mean(), base.Mean())
	}
	// But the network still routes everything (panics inside routeSample
	// otherwise) and stays within the ring worst case.
	if hurt.Max() >= float64(nw.N()) {
		t.Errorf("max hops %v beyond ring worst case", hurt.Max())
	}
}

func TestProtocolSamplerRoutesWell(t *testing.T) {
	const n = 1024
	exactCfg := SkewedConfig(n, dist.NewTruncExp(5), 37)
	exactCfg.Sampler = Exact
	protoCfg := SkewedConfig(n, dist.NewTruncExp(5), 37)
	protoCfg.Sampler = Protocol
	he := routeSample(mustBuild(t, exactCfg), xrand.New(38), 1500).Mean()
	hp := routeSample(mustBuild(t, protoCfg), xrand.New(38), 1500).Mean()
	if ratio := hp / he; ratio > 1.25 || ratio < 0.75 {
		t.Errorf("protocol sampler %.2f hops vs exact %.2f (ratio %.2f)", hp, he, ratio)
	}
}

func TestKleinbergExponentSmoke(t *testing.T) {
	// Non-harmonic exponents must still build and route (the efficiency
	// comparison lives in the E-suite; here we only check correctness).
	for _, r := range []float64{0.5, 2} {
		cfg := KleinbergConfig(256, 4, r, 39)
		cfg.Topology = keyspace.Ring
		nw := mustBuild(t, cfg)
		rt := nw.RouteToNode(0, nw.N()/2)
		if !rt.Arrived {
			t.Errorf("r=%v: route failed", r)
		}
	}
}
