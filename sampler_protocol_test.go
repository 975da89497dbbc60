package smallworld

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// The Protocol sampler resolves its draws in batches through a successor
// index and draws with constants hoisted per node. These tests pin it,
// link for link, to the one-draw-at-a-time reference in
// sampler_ref_test.go, and pin the index to Points.Successor.

// sameNetwork fails unless got and want have the same long-range lists
// (elements and capacities), CSR, shortfall and footprint.
func sameNetwork(t *testing.T, name string, got, want *Network) {
	t.Helper()
	if got.shortfall != want.shortfall || got.Footprint() != want.Footprint() {
		t.Fatalf("%s: shortfall %d footprint %d, want %d and %d", name,
			got.shortfall, got.Footprint(), want.shortfall, want.Footprint())
	}
	gc, wc := got.CSR(), want.CSR()
	if gc.N() != wc.N() || gc.M() != wc.M() {
		t.Fatalf("%s: CSR %d nodes %d edges, want %d and %d", name, gc.N(), gc.M(), wc.N(), wc.M())
	}
	for u := 0; u < want.N(); u++ {
		g, w := got.LongRange(u), want.LongRange(u)
		if !slices.Equal(g, w) || cap(g) != cap(w) {
			t.Fatalf("%s: node %d links %v (cap %d), want %v (cap %d)", name, u, g, cap(g), w, cap(w))
		}
		if !slices.Equal(gc.Out(u), wc.Out(u)) {
			t.Fatalf("%s: node %d row %v, want %v", name, u, gc.Out(u), wc.Out(u))
		}
	}
}

func TestProtocolSamplerMatchesReference(t *testing.T) {
	ctx := context.Background()
	shortfall := 0
	for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
		for _, measure := range []Measure{Mass, Geometric} {
			for _, r := range []float64{0.5, 1, 2} {
				for _, n := range []int{2, 3, 5, 64, 4096} {
					for _, workers := range []int{1, 2, 8} {
						name := fmt.Sprintf("%v/%v/r=%g/n=%d/workers=%d", topo, measure, r, n, workers)
						cfg, err := Config{
							N: n, Dist: dist.NewPower(0.7), Measure: measure, Topology: topo,
							Exponent: r, Sampler: Protocol, Seed: uint64(n) + 11, Workers: workers,
						}.withDefaults()
						if err != nil {
							t.Fatal(err)
						}
						got, err := build(ctx, cfg, protocolSampler{})
						if err != nil {
							t.Fatal(err)
						}
						want, err := build(ctx, cfg, refProtocolSampler{})
						if err != nil {
							t.Fatal(err)
						}
						sameNetwork(t, name, got, want)
						shortfall += want.shortfall
					}
				}
			}
		}
	}
	if shortfall == 0 {
		t.Fatal("no configuration ran out of attempts; the attempt budget is untested")
	}

	// No offset is eligible on a ring whose floor is half the ring:
	// both samplers place nothing and keep the links' capacity.
	nw := mustBuild(t, Config{N: 64, Dist: dist.NewPower(0.7), Measure: Mass, Topology: keyspace.Ring, Sampler: Protocol, Seed: 3})
	nw.cfg.MinMeasure = 0.5
	deg := nw.cfg.Degree(nw.N())
	var rng xrand.Stream
	for u := 0; u < nw.N(); u++ {
		rng.Reseed(uint64(u))
		got := protocolSampler{}.sampleLinks(nw, u, deg, &rng, nil)
		rng.Reseed(uint64(u))
		want := refProtocolSampler{}.sampleLinks(nw, u, deg, &rng, nil)
		if len(got) != 0 || len(want) != 0 || cap(got) != deg || cap(want) != deg {
			t.Fatalf("node %d: links %v (cap %d) and %v (cap %d), want none with cap %d",
				u, got, cap(got), want, cap(want), deg)
		}
	}
}

// TestMeasureDrawMatchesReference compares MeasureDraw with the
// per-draw reference bit for bit, at the line's ends, with floors that
// leave one side or no side eligible, and for every exponent class.
func TestMeasureDrawMatchesReference(t *testing.T) {
	for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
		for _, r := range []float64{0.5, 1, 2} {
			for _, lo := range []float64{1e-6, 0.1, 0.4, 0.5, 0.6} {
				for _, pos := range []float64{0, 5e-324, 0.05, 0.3, 0.5, 0.95, math.Nextafter(1, 0)} {
					md, ok := NewMeasureDraw(topo, pos, r, lo)
					a, b := xrand.New(7), xrand.New(7)
					for i := 0; i < 50; i++ {
						want, wantOK := drawMeasureTargetRef(b, topo, pos, r, lo)
						if ok != wantOK {
							t.Fatalf("%v r=%g lo=%g pos=%g: ok %v, want %v", topo, r, lo, pos, ok, wantOK)
						}
						if !ok {
							break
						}
						if got := md.Draw(a); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%v r=%g lo=%g pos=%g draw %d: %v, want %v", topo, r, lo, pos, i, got, want)
						}
					}
				}
			}
		}
	}
}

// checkSuccessorIndex compares the index with Points.Successor at
// every bucket edge b/B, every key and the float neighbours of both,
// at the ends of [0,1), outside it, and at the extra queries.
func checkSuccessorIndex(t *testing.T, keys keyspace.Points, extra ...keyspace.Key) {
	t.Helper()
	nw := &Network{keys: keys}
	nw.indexKeys()
	buckets := len(nw.succStart) - 1
	check := func(x float64) {
		t.Helper()
		if got, want := nw.successor(keyspace.Key(x)), keys.Successor(keyspace.Key(x)); got != want {
			t.Fatalf("N=%d B=%d: successor(%v) = %d, want %d", len(keys), buckets, x, got, want)
		}
	}
	near := func(x float64) {
		t.Helper()
		check(math.Nextafter(x, math.Inf(-1)))
		check(x)
		check(math.Nextafter(x, math.Inf(1)))
	}
	for b := 0; b <= buckets; b++ {
		near(float64(b) / float64(buckets))
	}
	for _, k := range keys {
		near(float64(k))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), math.Nextafter(1, 0), 1, -0.5, 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		check(x)
	}
	for _, x := range extra {
		check(float64(x))
	}
}

// ulpRun returns n keys at consecutive floats from x up.
func ulpRun(x float64, n int) []keyspace.Key {
	ks := make([]keyspace.Key, n)
	for i := range ks {
		ks[i] = keyspace.Key(x)
		x = math.Nextafter(x, 2)
	}
	return ks
}

func TestSuccessorIndexMatches(t *testing.T) {
	rng := xrand.New(21)
	random := func(n int, d dist.Distribution) keyspace.Points {
		ks := make([]keyspace.Key, n)
		for i := range ks {
			ks[i] = keyspace.Clamp(d.Quantile(rng.Float64()))
		}
		return keyspace.SortPoints(ks)
	}
	below := func(x float64, n int) float64 {
		for ; n > 0; n-- {
			x = math.Nextafter(x, -1)
		}
		return x
	}
	cases := []struct {
		name string
		keys keyspace.Points
	}{
		{"one", keyspace.Points{0.5}},
		{"two", keyspace.Points{0.25, 0.75}},
		{"two-at-the-ends", keyspace.Points{0, keyspace.Key(math.Nextafter(1, 0))}},
		{"two-one-ulp", keyspace.Points(ulpRun(0.5, 2))},
		{"ulps-at-zero", keyspace.Points(ulpRun(0, 40))},
		{"ulps-across-half", keyspace.Points(ulpRun(below(0.5, 20), 40))},
		{"ulps-at-the-top", keyspace.Points(ulpRun(below(1, 40), 40))},
		{"bucket-edges", keyspace.Points{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875}},
		{"duplicates", keyspace.Points{0.1, 0.1, 0.1, 0.6, 0.6}},
		{"uniform-4096", random(4096, dist.Uniform{})},
		{"power-4096", random(4096, dist.NewPower(0.7))},
	}
	for _, c := range cases {
		keys := c.keys
		t.Run(c.name, func(t *testing.T) {
			if !slices.IsSorted(keys) {
				t.Fatal("keys not sorted")
			}
			extra := make([]keyspace.Key, 200)
			for i := range extra {
				extra[i] = keyspace.Key(rng.Float64())
			}
			checkSuccessorIndex(t, keys, extra...)
		})
	}
}

// FuzzSuccessorIndex decodes key sets from the input: each three bytes
// are a 16-bit position in [0,1) moved by up to 127 floats up or down,
// so keys fall on bucket edges and in ulp clusters. The query is the
// float argument, which may be any float64. Seed corpus in
// testdata/fuzz/FuzzSuccessorIndex.
func FuzzSuccessorIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, x float64) {
		ks := make([]keyspace.Key, 0, len(data)/3)
		for i := 0; i+3 <= len(data); i += 3 {
			k := float64(uint16(data[i])<<8|uint16(data[i+1])) / 65536
			dir := math.Inf(1)
			if data[i+2]&0x80 != 0 {
				dir = math.Inf(-1)
			}
			for s := data[i+2] & 0x7f; s > 0; s-- {
				k = math.Nextafter(k, dir)
			}
			ks = append(ks, keyspace.Clamp(k))
		}
		checkSuccessorIndex(t, keyspace.SortPoints(ks), keyspace.Key(x))
	})
}
