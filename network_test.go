package smallworld

import (
	"context"
	"math"
	"slices"
	"testing"

	"smallworld/dist"
	"smallworld/graph"
	"smallworld/keyspace"
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

func TestBuildUniformBasics(t *testing.T) {
	const n = 256
	cfg := UniformConfig(n, 1)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	if nw.N() != n {
		t.Fatalf("N = %d", nw.N())
	}
	if !slices.IsSorted(nw.Keys()) {
		t.Error("keys not sorted")
	}
	if !nw.CSR().StronglyConnectedWith(&graph.Scratch{}) {
		t.Error("overlay must be strongly connected")
	}
	deg := Log2Degree()(n) // 8
	if deg != 8 {
		t.Fatalf("log2 degree of 256 = %d, want 8", deg)
	}
	// Every node: 2 neighbour edges + up to deg long-range.
	for u := 0; u < n; u++ {
		out := len(nw.CSR().Out(u))
		if out < 2 || out > 2+deg {
			t.Errorf("node %d outdegree %d outside [2,%d]", u, out, 2+deg)
		}
	}
	if nw.shortfall > n/50 {
		t.Errorf("shortfall = %d, too many unplaced links", nw.shortfall)
	}
}

func TestBuildLineTopologyNeighbors(t *testing.T) {
	cfg := UniformConfig(64, 2)
	cfg.Topology = keyspace.Line
	nw := mustBuild(t, cfg)
	g := nw.CSR()
	// An edge between the endpoints may exist only as a sampled long-range
	// link, never as a wrapping neighbour edge.
	if g.HasEdge(0, 63) && !contains(nw.LongRange(0), 63) {
		t.Error("line topology must not wrap neighbour edges")
	}
	if g.HasEdge(63, 0) && !contains(nw.LongRange(63), 0) {
		t.Error("line topology must not wrap neighbour edges")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(63, 62) {
		t.Error("line neighbour edges missing")
	}
	// Line networks are still strongly connected through the chain.
	if !g.StronglyConnectedWith(&graph.Scratch{}) {
		t.Error("line overlay must be strongly connected")
	}
}

func TestBuildRingWrapEdges(t *testing.T) {
	cfg := UniformConfig(64, 2)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	if !nw.CSR().HasEdge(0, 63) || !nw.CSR().HasEdge(63, 0) {
		t.Error("ring topology must wrap neighbour edges")
	}
}

func TestBuildDeterministic(t *testing.T) {
	for _, sampler := range []SamplerKind{Exact, Protocol} {
		cfg := SkewedConfig(128, dist.NewPower(0.6), 99)
		cfg.Sampler = sampler
		cfg.Workers = 1
		a := mustBuild(t, cfg)
		cfg.Workers = 4
		b := mustBuild(t, cfg)
		if a.CSR().M() != b.CSR().M() {
			t.Fatalf("%v: edge counts differ across worker counts", sampler)
		}
		for u := 0; u < a.N(); u++ {
			for _, v := range a.CSR().Out(u) {
				if !b.CSR().HasEdge(u, int(v)) {
					t.Fatalf("%v: edge %d->%d missing in second build", sampler, u, v)
				}
			}
		}
	}
}

func TestBuildSeedsDiffer(t *testing.T) {
	cfg := UniformConfig(128, 5)
	a := mustBuild(t, cfg)
	cfg.Seed = 6
	b := mustBuild(t, cfg)
	diff := 0
	for u := 0; u < a.N(); u++ {
		for _, v := range a.LongRange(u) {
			if !contains(b.LongRange(u), v) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical long-range link sets")
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

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{N: 1}); err == nil {
		t.Error("N=1 should fail")
	}
	if _, err := Build(Config{N: 4, Keys: []keyspace.Key{0.1, 0.2}}); err == nil {
		t.Error("key count mismatch should fail")
	}
	if _, err := Build(Config{N: 2, Keys: []keyspace.Key{0.1, 1.5}}); err == nil {
		t.Error("invalid fixed key should fail")
	}
	if _, err := Build(Config{N: 3, Keys: []keyspace.Key{0.1, 0.1, 0.2}}); err == nil {
		t.Error("duplicate fixed keys should fail")
	}
	if _, err := Build(Config{N: 4, Exponent: -1}); err == nil {
		t.Error("negative exponent should fail")
	}
	if _, err := Build(Config{N: 4, MinMeasure: 2}); err == nil {
		t.Error("oversized MinMeasure should fail")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Build(Config{N: 4, Exponent: bad}); err == nil {
			t.Errorf("Exponent %v should fail", bad)
		}
		if _, err := Build(Config{N: 4, MinMeasure: bad}); err == nil {
			t.Errorf("MinMeasure %v should fail", bad)
		}
	}
	if _, err := Build(Config{N: 4, Topology: keyspace.Topology(9)}); err == nil {
		t.Error("unknown topology should fail")
	}
	cfg := UniformConfig(4, 1)
	cfg.Sampler = SamplerKind(42)
	if _, err := Build(cfg); err == nil {
		t.Error("unknown sampler should fail")
	}
}

// TestBuildContextCancellation: a cancelled context aborts construction
// with the context error.
func TestBuildContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildContext(ctx, UniformConfig(64, 1)); err == nil {
		t.Fatal("cancelled build succeeded")
	}
	// And an open context builds the same network as Build.
	a, err := BuildContext(context.Background(), UniformConfig(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(UniformConfig(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 64; u++ {
		if a.Key(u) != b.Key(u) {
			t.Fatalf("key %d differs", u)
		}
	}
}

func TestFixedKeysRespected(t *testing.T) {
	keys := []keyspace.Key{0.9, 0.1, 0.5, 0.3}
	cfg := UniformConfig(4, 1)
	cfg.Keys = keys
	nw := mustBuild(t, cfg)
	want := []keyspace.Key{0.1, 0.3, 0.5, 0.9}
	for i, k := range nw.Keys() {
		if k != want[i] {
			t.Errorf("key[%d] = %v, want %v", i, k, want[i])
		}
	}
}

func TestExactSamplerEligibility(t *testing.T) {
	for _, m := range []Measure{Geometric, Mass} {
		cfg := Config{
			N: 256, Dist: dist.NewPower(0.5), Measure: m,
			Sampler: Exact, Seed: 3, Topology: keyspace.Ring,
		}
		nw := mustBuild(t, cfg)
		minM := nw.Config().MinMeasure
		for u := 0; u < nw.N(); u++ {
			for _, v := range nw.LongRange(u) {
				if meas := nw.measureBetween(u, int(v)); meas < minM {
					t.Fatalf("measure %v: link %d->%d has measure %v < %v",
						m, u, v, meas, minM)
				}
			}
		}
	}
}

func TestLongRangeLinksDistinct(t *testing.T) {
	for _, s := range []SamplerKind{Exact, Protocol} {
		cfg := UniformConfig(256, 4)
		cfg.Sampler = s
		nw := mustBuild(t, cfg)
		for u := 0; u < nw.N(); u++ {
			seen := map[int32]bool{}
			for _, v := range nw.LongRange(u) {
				if seen[v] {
					t.Fatalf("%v: duplicate long-range link %d->%d", s, u, v)
				}
				if nw.isNeighborIndex(u, int(v)) {
					t.Fatalf("%v: long-range link %d->%d duplicates neighbour edge", s, u, v)
				}
				seen[v] = true
			}
		}
	}
}

func TestNormIsCDFImage(t *testing.T) {
	d := dist.NewTruncExp(4)
	cfg := SkewedConfig(64, d, 8)
	nw := mustBuild(t, cfg)
	for u := 0; u < nw.N(); u++ {
		want := d.CDF(float64(nw.Key(u)))
		if math.Abs(nw.Norm(u)-want) > 1e-12 {
			t.Fatalf("norm[%d] = %v, want CDF image %v", u, nw.Norm(u), want)
		}
	}
}

func TestClosestNode(t *testing.T) {
	cfg := UniformConfig(128, 9)
	nw := mustBuild(t, cfg)
	r := xrand.New(10)
	for i := 0; i < 100; i++ {
		target := keyspace.Key(r.Float64())
		c := nw.ClosestNode(target)
		d := nw.cfg.Topology.Distance(nw.Key(c), target)
		for u := 0; u < nw.N(); u++ {
			if nw.cfg.Topology.Distance(nw.Key(u), target) < d-1e-15 {
				t.Fatalf("node %d closer to %v than reported closest %d", u, target, c)
			}
		}
	}
}

func TestWithFailedLinks(t *testing.T) {
	cfg := UniformConfig(256, 11)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	r := xrand.New(12)

	all := nw.WithFailedLinks(r, 1)
	for u := 0; u < all.N(); u++ {
		if len(all.LongRange(u)) != 0 {
			t.Fatal("frac=1 should remove every long-range link")
		}
	}
	if !all.CSR().StronglyConnectedWith(&graph.Scratch{}) {
		t.Error("ring edges must keep the overlay connected")
	}
	// Original untouched.
	var origLong int
	for u := 0; u < nw.N(); u++ {
		origLong += len(nw.LongRange(u))
	}
	if origLong == 0 {
		t.Fatal("original lost its links")
	}

	none := nw.WithFailedLinks(r, 0)
	if none.CSR().M() != nw.CSR().M() {
		t.Error("frac=0 should preserve all edges")
	}

	half := nw.WithFailedLinks(r, 0.5)
	var kept int
	for u := 0; u < half.N(); u++ {
		kept += len(half.LongRange(u))
	}
	if frac := float64(kept) / float64(origLong); frac < 0.4 || frac > 0.6 {
		t.Errorf("frac=0.5 kept %v of links", frac)
	}
	// Out-of-range fractions clamp.
	if nw.WithFailedLinks(r, -3).CSR().M() != nw.CSR().M() {
		t.Error("negative frac should clamp to 0")
	}
}

func TestDegreeFuncs(t *testing.T) {
	if Log2Degree()(1024) != 10 {
		t.Errorf("Log2Degree(1024) = %d", Log2Degree()(1024))
	}
	if Log2Degree()(1000) != 10 {
		t.Errorf("Log2Degree(1000) = %d, want ceil", Log2Degree()(1000))
	}
	if Log2Degree()(1) != 0 {
		t.Error("Log2Degree(1) should be 0")
	}
	if ConstDegree(5)(1<<20) != 5 {
		t.Error("ConstDegree should ignore n")
	}
}

func TestMeasureString(t *testing.T) {
	if Geometric.String() != "geometric" || Mass.String() != "mass" {
		t.Error("measure names wrong")
	}
	if Measure(7).String() == "" || SamplerKind(7).String() == "" {
		t.Error("unknown enums should still format")
	}
	if Exact.String() != "exact" || Protocol.String() != "protocol" {
		t.Error("sampler names wrong")
	}
}

func TestShortfallTinyNetwork(t *testing.T) {
	// With 3 nodes everything is a neighbour; long-range links cannot be
	// placed and must be reported as shortfall rather than looping.
	cfg := UniformConfig(3, 1)
	cfg.Topology = keyspace.Ring
	cfg.Degree = ConstDegree(4)
	nw := mustBuild(t, cfg)
	if nw.shortfall != 3*4 {
		t.Errorf("shortfall = %d, want 12", nw.shortfall)
	}
}

// TestCellsTileTheSpace checks the ownership the store and the writer
// read, keyspace.Cell, over a built network's skewed identifiers on both
// topologies: every cell contains its own key, the cells cover the whole
// space, and a random key lies in the cell of the node ClosestNode
// returns (or, on an exact tie, of a key-order neighbour).
func TestCellsTileTheSpace(t *testing.T) {
	for _, topo := range []keyspace.Topology{keyspace.Line, keyspace.Ring} {
		cfg := SkewedConfig(128, dist.NewPower(0.6), 91)
		cfg.Topology = topo
		nw := mustBuild(t, cfg)
		n := nw.N()
		cell := func(u int) keyspace.Interval { return keyspace.Cell(topo, nw.Keys(), (u+n)%n) }
		var total float64
		for u := 0; u < n; u++ {
			if !cell(u).Contains(nw.Key(u)) {
				t.Fatalf("%v: cell of %d does not contain its key", topo, u)
			}
			total += cell(u).Length()
		}
		if math.Abs(total-1) > 1e-6 {
			t.Errorf("%v: cells cover %v of the space", topo, total)
		}
		r := xrand.New(92)
		for i := 0; i < 300; i++ {
			k := keyspace.Key(r.Float64())
			owner := nw.ClosestNode(k)
			if !cell(owner).Contains(k) && !cell(owner+1).Contains(k) && !cell(owner-1).Contains(k) {
				t.Fatalf("%v: key %v outside closest node %d's cell %v", topo, k, owner, cell(owner))
			}
		}
	}
}
