package can

import (
	"math"
	"testing"

	"smallworld/dist"
	"smallworld/metrics"
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
	if _, err := Build(Config{N: 0}); err == nil {
		t.Error("N=0 should fail")
	}
	if _, err := Build(Config{N: 4, Dims: 5}); err == nil {
		t.Error("dims=5 should fail")
	}
}

func TestZonesTileTheCube(t *testing.T) {
	for _, dims := range []int{1, 2, 3} {
		nw := mustBuild(t, Config{N: 128, Dims: dims, Seed: 1})
		// Volumes sum to 1.
		var vol float64
		for _, z := range nw.zones {
			v := 1.0
			for i := 0; i < dims; i++ {
				v *= z.Hi[i] - z.Lo[i]
			}
			vol += v
		}
		if math.Abs(vol-1) > 1e-9 {
			t.Errorf("dims=%d: zone volumes sum to %v", dims, vol)
		}
		// Random points each land in exactly one zone.
		r := xrand.New(2)
		for i := 0; i < 500; i++ {
			var p Point
			for d := 0; d < dims; d++ {
				p[d] = r.Float64()
			}
			owners := 0
			for _, z := range nw.zones {
				if z.Contains(p, dims) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("dims=%d: point %v in %d zones", dims, p, owners)
			}
		}
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	nw := mustBuild(t, Config{N: 64, Seed: 3})
	for u := 0; u < nw.N(); u++ {
		for _, v := range nw.neighbors[u] {
			found := false
			for _, w := range nw.neighbors[v] {
				if int(w) == u {
					found = true
				}
			}
			if !found {
				t.Fatalf("neighbor relation not symmetric: %d->%d", u, v)
			}
		}
	}
}

func TestTouches(t *testing.T) {
	a := Zone{Lo: Point{0, 0}, Hi: Point{0.5, 0.5}}
	b := Zone{Lo: Point{0.5, 0}, Hi: Point{1, 0.5}}   // shares right face
	c := Zone{Lo: Point{0.5, 0.5}, Hi: Point{1, 1}}   // corner only
	d := Zone{Lo: Point{0, 0.5}, Hi: Point{0.5, 1}}   // shares top face
	e := Zone{Lo: Point{0.75, 0.75}, Hi: Point{1, 1}} // disjoint
	if !touches(a, b, 2) || !touches(a, d, 2) {
		t.Error("face-sharing zones must touch")
	}
	if touches(a, c, 2) {
		t.Error("corner-only zones must not touch")
	}
	if touches(a, e, 2) {
		t.Error("disjoint zones must not touch")
	}
}

func TestLookupFindsOwner(t *testing.T) {
	for _, dims := range []int{1, 2} {
		nw := mustBuild(t, Config{N: 256, Dims: dims, Seed: 4})
		r := xrand.New(5)
		for i := 0; i < 1000; i++ {
			src := r.Intn(nw.N())
			var p Point
			for d := 0; d < dims; d++ {
				p[d] = r.Float64()
			}
			_, got := nw.Lookup(src, p)
			if want := nw.zoneContaining(p); got != want {
				t.Fatalf("dims=%d: lookup = %d, owner %d", dims, got, want)
			}
		}
	}
}

func TestUniformHopsSqrtN(t *testing.T) {
	const n = 1024
	nw := mustBuild(t, Config{N: n, Dims: 2, Seed: 6})
	r := xrand.New(7)
	var s metrics.Summary
	for i := 0; i < 1000; i++ {
		var p Point
		p[0], p[1] = r.Float64(), r.Float64()
		hops, _ := nw.Lookup(r.Intn(n), p)
		s.Add(float64(hops))
	}
	// 2-d CAN routes in ~sqrt(N) hops; allow a generous band.
	sqrtN := math.Sqrt(n)
	if s.Mean() > 2*sqrtN || s.Mean() < sqrtN/4 {
		t.Errorf("mean hops %.1f, want ~sqrt(N) = %.1f", s.Mean(), sqrtN)
	}
}

func TestSkewUnbalancesZones(t *testing.T) {
	const n = 512
	uni := mustBuild(t, Config{N: n, Dims: 2, Seed: 8})
	skew := mustBuild(t, Config{N: n, Dims: 2, Dist: dist.NewPower(0.8), Seed: 8})
	gU := metrics.Gini(uni.Widths())
	gS := metrics.Gini(skew.Widths())
	if gS <= gU {
		t.Errorf("skewed joins should unbalance zone widths: gini %v vs %v", gS, gU)
	}
}

func TestSkewInflatesHops(t *testing.T) {
	const n = 1024
	uni := mustBuild(t, Config{N: n, Dims: 2, Seed: 9})
	skew := mustBuild(t, Config{N: n, Dims: 2, Dist: dist.NewPower(0.85), Seed: 9})
	r1, r2 := xrand.New(10), xrand.New(10)
	d := dist.NewPower(0.85)
	var hu, hs metrics.Summary
	for i := 0; i < 600; i++ {
		// Query workload follows the data distribution (hot keys are hot).
		var p Point
		p[0] = float64(dist.Sample(d, r1))
		p[1] = r1.Float64()
		hops, _ := uni.Lookup(r1.Intn(n), p)
		hu.Add(float64(hops))

		var q Point
		q[0] = float64(dist.Sample(d, r2))
		q[1] = r2.Float64()
		hops2, _ := skew.Lookup(r2.Intn(n), q)
		hs.Add(float64(hops2))
	}
	if hs.Mean() <= hu.Mean() {
		t.Errorf("skewed CAN should route worse: %.1f vs %.1f hops", hs.Mean(), hu.Mean())
	}
}

func TestOneNode(t *testing.T) {
	nw := mustBuild(t, Config{N: 1, Seed: 11})
	hops, owner := nw.Lookup(0, Point{0.3, 0.7})
	if hops != 0 || owner != 0 {
		t.Error("single-zone lookup should be free")
	}
}

func TestDeterministic(t *testing.T) {
	a := mustBuild(t, Config{N: 128, Seed: 12})
	b := mustBuild(t, Config{N: 128, Seed: 12})
	for u := 0; u < a.N(); u++ {
		if a.Zone(u) != b.Zone(u) {
			t.Fatal("zones differ for equal seeds")
		}
	}
}
