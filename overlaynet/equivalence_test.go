package overlaynet

// The golden equivalence suite: for every registered topology, the
// overlaynet.Build path must produce a bit-identical graph — same node
// identifiers, same out-neighbour lists — and identical routes (hops,
// terminal node, arrival) as the legacy package-level constructors,
// for the same (config, seed). This is what makes the registry a safe
// front door: selecting a topology by name costs nothing in fidelity.

import (
	"context"
	"math"
	"testing"

	"smallworld"
	"smallworld/dist"
	"smallworld/internal/dht/can"
	"smallworld/internal/dht/chord"
	"smallworld/internal/dht/pastry"
	"smallworld/internal/dht/pgrid"
	"smallworld/internal/dht/symphony"
	"smallworld/internal/wattsstrogatz"
	"smallworld/keyspace"
	"smallworld/xrand"
)

const (
	goldenN      = 256
	goldenSeed   = 7
	goldenRoutes = 200
)

// goldenTargets returns a deterministic batch of (src, target) probes.
func goldenTargets(n int) []Query {
	rng := xrand.New(99)
	qs := make([]Query, goldenRoutes)
	for i := range qs {
		qs[i] = Query{Src: rng.Intn(n), Target: keyspace.Key(rng.Float64())}
	}
	return qs
}

// checkGraphEqual requires identical keys and out-neighbour lists.
func checkGraphEqual(t *testing.T, want, got Overlay) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("N: legacy %d, registry %d", want.N(), got.N())
	}
	for u := 0; u < want.N(); u++ {
		if want.Key(u) != got.Key(u) {
			t.Fatalf("key of node %d: legacy %v, registry %v", u, want.Key(u), got.Key(u))
		}
		w, g := want.Neighbors(u), got.Neighbors(u)
		if len(w) != len(g) {
			t.Fatalf("node %d degree: legacy %d, registry %d", u, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("node %d neighbour %d: legacy %d, registry %d", u, i, w[i], g[i])
			}
		}
	}
}

// checkRoutesEqual requires identical results for the golden probes.
func checkRoutesEqual(t *testing.T, want, got Overlay) {
	t.Helper()
	wr, gr := want.NewRouter(), got.NewRouter()
	for _, q := range goldenTargets(want.N()) {
		w := wr.Route(q.Src, q.Target)
		g := gr.Route(q.Src, q.Target)
		if w != g {
			t.Fatalf("route %d->%v: legacy %+v, registry %+v", q.Src, q.Target, w, g)
		}
	}
}

func mustBuild(t *testing.T, name string, opts Options) Overlay {
	t.Helper()
	ov, err := Build(context.Background(), name, opts)
	if err != nil {
		t.Fatalf("Build(%q): %v", name, err)
	}
	if ov.Kind() != name {
		t.Fatalf("Kind() = %q, want %q", ov.Kind(), name)
	}
	return ov
}

// --- the small-world family: compared against the raw legacy router ---

func checkSmallWorldGolden(t *testing.T, cfg smallworld.Config, name string, opts Options) {
	t.Helper()
	legacy, err := smallworld.Build(cfg)
	if err != nil {
		t.Fatalf("legacy build: %v", err)
	}
	ov := mustBuild(t, name, opts)
	checkGraphEqual(t, WrapNetwork(legacy), ov)

	// Route through the *legacy* Router directly — not through the
	// adapter — so the comparison covers the whole legacy entry point.
	router := legacy.NewRouter()
	ovRouter := ov.NewRouter()
	for _, q := range goldenTargets(legacy.N()) {
		rt := router.RouteGreedy(q.Src, q.Target)
		want := Result{Hops: rt.Hops(), Dest: rt.Path[len(rt.Path)-1], Arrived: rt.Arrived}
		if got := ovRouter.Route(q.Src, q.Target); got != want {
			t.Fatalf("route %d->%v: legacy %+v, registry %+v", q.Src, q.Target, want, got)
		}
	}
}

func TestGoldenSmallWorldUniform(t *testing.T) {
	cfg := smallworld.UniformConfig(goldenN, goldenSeed)
	cfg.Sampler = smallworld.Protocol
	cfg.Topology = keyspace.Ring
	checkSmallWorldGolden(t, cfg, "smallworld-uniform",
		Options{N: goldenN, Seed: goldenSeed, Topology: keyspace.Ring})
}

func TestGoldenSmallWorldSkewed(t *testing.T) {
	d := dist.NewPower(0.8)
	cfg := smallworld.SkewedConfig(goldenN, d, goldenSeed)
	cfg.Sampler = smallworld.Protocol
	cfg.Topology = keyspace.Ring
	checkSmallWorldGolden(t, cfg, "smallworld-skewed",
		Options{N: goldenN, Seed: goldenSeed, Dist: d, Topology: keyspace.Ring})
}

func TestGoldenSmallWorldExactSampler(t *testing.T) {
	d := dist.NewTruncExp(6)
	cfg := smallworld.SkewedConfig(goldenN, d, goldenSeed)
	cfg.Sampler = smallworld.Exact
	cfg.Topology = keyspace.Ring
	checkSmallWorldGolden(t, cfg, "smallworld-skewed",
		Options{N: goldenN, Seed: goldenSeed, Dist: d, Topology: keyspace.Ring, Sampler: "exact"})
}

func TestGoldenKleinberg(t *testing.T) {
	cfg := smallworld.KleinbergConfig(goldenN, 4, 1, goldenSeed)
	cfg.Sampler = smallworld.Protocol
	cfg.Topology = keyspace.Ring
	checkSmallWorldGolden(t, cfg, "kleinberg",
		Options{N: goldenN, Seed: goldenSeed, Topology: keyspace.Ring})
}

// --- Watts–Strogatz: compared against the legacy greedy route ---

func TestGoldenWattsStrogatz(t *testing.T) {
	legacy, err := wattsstrogatz.Build(wattsstrogatz.Config{N: goldenN, K: 8, P: 0.1, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	ov := mustBuild(t, "wattsstrogatz", Options{N: goldenN, Seed: goldenSeed})
	for u := 0; u < goldenN; u++ {
		if legacy.Key(u) != ov.Key(u) {
			t.Fatalf("key of node %d differs", u)
		}
		w, g := legacy.CSR().Out(u), ov.Neighbors(u)
		if len(w) != len(g) {
			t.Fatalf("node %d degree: legacy %d, registry %d", u, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("node %d neighbour %d differs", u, i)
			}
		}
	}
	router := ov.NewRouter()
	rng := xrand.New(99)
	for i := 0; i < goldenRoutes; i++ {
		src, dst := rng.Intn(goldenN), rng.Intn(goldenN)
		hops, last, arrived := legacy.Route(src, dst)
		want := Result{Hops: hops, Dest: last, Arrived: arrived}
		if got := router.Route(src, legacy.Key(dst)); got != want {
			t.Fatalf("route %d->%d: legacy %+v, registry %+v", src, dst, want, got)
		}
	}
}

// --- DHT baselines: legacy constructor vs registry, plus raw lookups ---

func TestGoldenChord(t *testing.T) {
	legacy := chord.Build(goldenN, goldenSeed)
	ov := mustBuild(t, "chord", Options{N: goldenN, Seed: goldenSeed})
	checkGraphEqual(t, wrapChord(legacy), ov)
	checkRoutesEqual(t, wrapChord(legacy), ov)
	// Raw legacy lookups must agree with the adapter's key projection.
	router := ov.NewRouter()
	for _, q := range goldenTargets(goldenN) {
		hops, owner := legacy.Lookup(q.Src, keyToU64(q.Target))
		got := router.Route(q.Src, q.Target)
		if got.Hops != hops || got.Dest != owner {
			t.Fatalf("lookup %d->%v: legacy (%d,%d), registry %+v", q.Src, q.Target, hops, owner, got)
		}
	}
}

func TestGoldenPastry(t *testing.T) {
	legacy, err := pastry.Build(pastry.Config{N: goldenN, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	ov := mustBuild(t, "pastry", Options{N: goldenN, Seed: goldenSeed})
	checkGraphEqual(t, wrapPastry(legacy), ov)
	checkRoutesEqual(t, wrapPastry(legacy), ov)
	router := ov.NewRouter()
	for _, q := range goldenTargets(goldenN) {
		hops, owner := legacy.Lookup(q.Src, keyToU64(q.Target))
		got := router.Route(q.Src, q.Target)
		if got.Hops != hops || got.Dest != owner {
			t.Fatalf("lookup %d->%v: legacy (%d,%d), registry %+v", q.Src, q.Target, hops, owner, got)
		}
	}
}

func TestGoldenPGrid(t *testing.T) {
	d := dist.NewPower(0.8)
	legacy, err := pgrid.Build(pgrid.Config{N: goldenN, Dist: d, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	ov := mustBuild(t, "pgrid", Options{N: goldenN, Seed: goldenSeed, Dist: d})
	checkGraphEqual(t, wrapPGrid(legacy), ov)
	checkRoutesEqual(t, wrapPGrid(legacy), ov)
	router := ov.NewRouter()
	for _, q := range goldenTargets(goldenN) {
		hops, owner := legacy.Lookup(q.Src, q.Target)
		got := router.Route(q.Src, q.Target)
		if got.Hops != hops || got.Dest != owner {
			t.Fatalf("lookup %d->%v: legacy (%d,%d), registry %+v", q.Src, q.Target, hops, owner, got)
		}
	}
}

func TestGoldenSymphony(t *testing.T) {
	legacy, err := symphony.Build(symphony.Config{N: goldenN, K: smallworld.Log2Degree()(goldenN), Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	ov := mustBuild(t, "symphony", Options{N: goldenN, Seed: goldenSeed})
	checkGraphEqual(t, wrapSymphony(legacy, "symphony"), ov)
	checkRoutesEqual(t, wrapSymphony(legacy, "symphony"), ov)
	router := ov.NewRouter()
	for _, q := range goldenTargets(goldenN) {
		hops, last := legacy.Lookup(q.Src, q.Target)
		got := router.Route(q.Src, q.Target)
		if got.Hops != hops || got.Dest != last {
			t.Fatalf("lookup %d->%v: legacy (%d,%d), registry %+v", q.Src, q.Target, hops, last, got)
		}
	}
}

func TestGoldenMercury(t *testing.T) {
	d := dist.NewPower(0.8)
	legacy, err := symphony.Build(symphony.Config{
		N: goldenN, K: smallworld.Log2Degree()(goldenN), Mode: symphony.Mercury, Dist: d, Seed: goldenSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ov := mustBuild(t, "mercury", Options{N: goldenN, Seed: goldenSeed, Dist: d})
	checkGraphEqual(t, wrapSymphony(legacy, "mercury"), ov)
	checkRoutesEqual(t, wrapSymphony(legacy, "mercury"), ov)
}

func TestGoldenCAN(t *testing.T) {
	d := dist.NewPower(0.8)
	legacy, err := can.Build(can.Config{N: goldenN, Dims: 2, Dist: d, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	ov := mustBuild(t, "can", Options{N: goldenN, Seed: goldenSeed, Dist: d})
	checkGraphEqual(t, wrapCAN(legacy), ov)
	checkRoutesEqual(t, wrapCAN(legacy), ov)
	router := ov.NewRouter()
	for _, q := range goldenTargets(goldenN) {
		var p can.Point
		p[0] = float64(q.Target)
		p[1] = canProbeCoord
		hops, owner := legacy.Lookup(q.Src, p)
		got := router.Route(q.Src, q.Target)
		if got.Hops != hops || got.Dest != owner {
			t.Fatalf("lookup %d->%v: legacy (%d,%d), registry %+v", q.Src, q.Target, hops, owner, got)
		}
	}
}

// TestGoldenKeyProjection pins the 64-bit ring projection: monotone and
// inverse up to the float64 mantissa.
func TestGoldenKeyProjection(t *testing.T) {
	rng := xrand.New(5)
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		k := keyspace.Key(rng.Float64())
		u := keyToU64(k)
		back := u64ToKey(u)
		if math.Abs(float64(back-k)) > 1.0/(1<<52) {
			t.Fatalf("projection drift: %v -> %d -> %v", k, u, back)
		}
		_ = prev
	}
	if keyToU64(0) != 0 {
		t.Fatal("keyToU64(0) != 0")
	}
	if keyToU64(keyspace.Key(math.Nextafter(1, 0))) == 0 {
		t.Fatal("keyToU64 near 1 wrapped")
	}
	// Monotone on a sorted sample.
	last := uint64(0)
	for i := 0; i <= 1000; i++ {
		u := keyToU64(keyspace.Key(float64(i) / 1001))
		if u < last {
			t.Fatalf("projection not monotone at %d", i)
		}
		last = u
	}
}
