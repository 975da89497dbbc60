package store_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	smallworld "smallworld"
	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/overlaynet"
	"smallworld/store"
	"smallworld/xrand"
)

// TestStoreScanMatchesFilter compares Scan with a brute-force filter of
// the stored keys on both topologies: random, wrapping and near-full
// intervals must return exactly the stored keys inside the interval, in
// arc order from its Lo, each at its last written version. Joins between
// rounds move replica sets, so scans also read across handed-over
// cells. The replica counts cover R=1, R >= N and R above eight. The
// static cases at the end add populations the served overlays do not
// reach (scanStaticCases).
func TestStoreScanMatchesFilter(t *testing.T) {
	cases := []struct {
		topo keyspace.Topology
		n, r int
	}{
		{keyspace.Ring, 64, 3},
		{keyspace.Line, 64, 3},
		{keyspace.Ring, 64, 1},
		{keyspace.Line, 64, 1},
		{keyspace.Ring, 4, 6},
		{keyspace.Line, 8, 8},
		{keyspace.Ring, 64, 12},
		{keyspace.Line, 64, 12},
	}
	for ci, c := range cases {
		t.Run(fmt.Sprintf("%v/n=%d/r=%d", c.topo, c.n, c.r), func(t *testing.T) {
			ctx := context.Background()
			pub, _ := servedOn(t, c.topo, c.n, uint64(50+ci))
			st, err := store.New(pub, store.Config{Replicas: c.r, EventDriven: true})
			if err != nil {
				t.Fatal(err)
			}
			pub.SetOwnershipWatcher(st.ApplyChange)
			rng := xrand.New(uint64(70 + ci))
			stored := make(map[keyspace.Key]store.Stamp)
			for i := 0; i < 500; i++ {
				k := dist.Sample(dist.NewPower(0.7), rng)
				res := st.Put(rng.Intn(pub.LiveN()), k, valOf(k))
				if !res.Acked {
					t.Fatalf("put %v not acked", k)
				}
				stored[k] = res.Stamp
			}
			fixed := []keyspace.Interval{{Lo: 0.9, Hi: 0.1}, {Lo: 0.3, Hi: 0.2999}, {Lo: 0.5, Hi: 0}, {Lo: 0, Hi: 0.5}}
			for round := 0; round < 4; round++ {
				for trial := 0; trial < 60; trial++ {
					var iv keyspace.Interval
					lo := keyspace.Key(rng.Float64())
					switch {
					case trial < len(fixed):
						iv = fixed[trial]
					case trial%3 == 0:
						iv = keyspace.Interval{Lo: lo, Hi: keyspace.Wrap(float64(lo) + 0.3*rng.Float64())}
					case trial%3 == 1:
						lo = keyspace.Wrap(0.95 + 0.1*rng.Float64())
						iv = keyspace.Interval{Lo: lo, Hi: keyspace.Wrap(float64(lo) + 0.2*rng.Float64())}
					default:
						iv = keyspace.Interval{Lo: lo, Hi: keyspace.Wrap(float64(lo) + 1 - 1e-3*rng.Float64())}
					}
					if iv.Empty() {
						continue
					}
					checkScan(t, st.Scan(rng.Intn(pub.LiveN()), iv), iv, stored)
				}
				for i := 0; i < 3; i++ {
					if err := pub.Join(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
	scanStaticCases(t)
}

// staticSource serves one frozen snapshot.
type staticSource struct{ s *overlaynet.Snapshot }

func (ss staticSource) Snapshot() *overlaynet.Snapshot { return ss.s }

// scanStatic checks scans of a frozen small-world network against the
// filter: a store over its snapshot holds a value at every identifier,
// at both float neighbours of each, and at 200 uniform keys, and every
// interval of ivs is scanned from each source in srcs (every node when
// srcs is nil).
func scanStatic(t *testing.T, cfg smallworld.Config, ivs []keyspace.Interval, srcs []int) {
	t.Helper()
	nw, err := smallworld.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(staticSource{overlaynet.NewSnapshot(overlaynet.WrapNetwork(nw))}, store.Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	stored := make(map[keyspace.Key]store.Stamp)
	put := func(k keyspace.Key) {
		if _, ok := stored[k]; ok || !k.Valid() {
			return
		}
		res := st.Put(0, k, valOf(k))
		if !res.Acked {
			t.Fatalf("put %v not acked", k)
		}
		stored[k] = res.Stamp
	}
	for u := 0; u < nw.N(); u++ {
		k := float64(nw.Key(u))
		put(nw.Key(u))
		put(keyspace.Key(math.Nextafter(k, 0)))
		put(keyspace.Key(math.Nextafter(k, 1)))
	}
	r := xrand.New(cfg.Seed)
	for i := 0; i < 200; i++ {
		put(keyspace.Key(r.Float64()))
	}
	if srcs == nil {
		for u := 0; u < nw.N(); u++ {
			srcs = append(srcs, u)
		}
	}
	for _, iv := range ivs {
		for _, src := range srcs {
			checkScan(t, st.Scan(src, iv), iv, stored)
		}
	}
}

// ulpClusterConfig places ulp-dense clusters (nine keys one ulp apart
// at 0.5, two just below the ring wrap) beside three isolated keys: the
// degenerate spacing where cell midpoints round onto keys and
// zero-width cells appear.
func ulpClusterConfig(topo keyspace.Topology) smallworld.Config {
	var keys []keyspace.Key
	for i, x := 0, 0.5; i < 9; i, x = i+1, math.Nextafter(x, 1) {
		keys = append(keys, keyspace.Key(x))
	}
	below := math.Nextafter(math.Nextafter(1, 0), 0)
	keys = append(keys, keyspace.Key(below), keyspace.Key(math.Nextafter(below, 1)), 0.05, 0.2, 0.8)
	cfg := smallworld.UniformConfig(len(keys), 101)
	cfg.Topology = topo
	cfg.Keys = keys
	return cfg
}

// scanStaticCases runs scanStatic on the populations a range read must
// survive: intervals starting at every identifier of ulp-dense clusters
// and one ulp below it (inside a zero-width cell), from every source;
// forced wraps on heavily skewed rings; top-anchored wraps and narrow
// random intervals on skewed rings; the line; and the empty and the
// near-whole interval.
func scanStaticCases(t *testing.T) {
	for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
		t.Run(fmt.Sprintf("ulp-cluster/%v", topo), func(t *testing.T) {
			cfg := ulpClusterConfig(topo)
			var ivs []keyspace.Interval
			for _, k := range cfg.Keys {
				for _, lo := range []keyspace.Key{k, keyspace.Key(math.Nextafter(float64(k), 0))} {
					ivs = append(ivs, keyspace.Interval{Lo: lo, Hi: keyspace.Wrap(float64(lo) + 0.01)})
				}
			}
			ivs = append(ivs, keyspace.Interval{Lo: 0, Hi: 0.5}, keyspace.Interval{Lo: keyspace.Key(math.Nextafter(1, 0)), Hi: 0.3})
			scanStatic(t, cfg, ivs, nil)
		})
	}
	for _, d := range []dist.Distribution{dist.NewPower(0.9), dist.NewTruncExp(8)} {
		t.Run("skewed-ring/"+d.Name(), func(t *testing.T) {
			cfg := smallworld.SkewedConfig(384, d, 105)
			cfg.Topology = keyspace.Ring
			r := xrand.New(106)
			var ivs []keyspace.Interval
			for i := 0; i < 60; i++ {
				// Forced wraps: Lo in the top arc, Hi in the bottom arc.
				ivs = append(ivs, keyspace.Interval{Lo: keyspace.Key(0.9 + 0.1*r.Float64()), Hi: keyspace.Key(0.1 * r.Float64())})
			}
			scanStatic(t, cfg, ivs, []int{0, 191, 383})
		})
	}
	t.Run("ascending-across-wrap", func(t *testing.T) {
		cfg := smallworld.SkewedConfig(256, dist.NewPower(0.6), 95)
		cfg.Topology = keyspace.Ring
		r := xrand.New(96)
		var ivs []keyspace.Interval
		for i := 0; i < 200; i++ {
			// Anchored near the top, so most wrap, up to 0.22 wide.
			lo := keyspace.Wrap(0.95 + 0.1*r.Float64())
			ivs = append(ivs, keyspace.Interval{Lo: lo, Hi: keyspace.Wrap(float64(lo) + 0.02 + 0.2*r.Float64())})
		}
		scanStatic(t, cfg, ivs, []int{0, 127, 255})
	})
	t.Run("covers-interval", func(t *testing.T) {
		cfg := smallworld.SkewedConfig(256, dist.NewTruncExp(5), 93)
		cfg.Topology = keyspace.Ring
		r := xrand.New(94)
		var ivs []keyspace.Interval
		for i := 0; i < 100; i++ {
			// Anywhere, up to 0.05 wide.
			lo := keyspace.Key(r.Float64())
			ivs = append(ivs, keyspace.Interval{Lo: lo, Hi: keyspace.Wrap(float64(lo) + 0.05*r.Float64())})
		}
		scanStatic(t, cfg, ivs, []int{0, 127, 255})
	})
	t.Run("line", func(t *testing.T) {
		cfg := smallworld.UniformConfig(128, 99)
		cfg.Topology = keyspace.Line
		scanStatic(t, cfg, []keyspace.Interval{{Lo: 0.4, Hi: 0.6}, {Lo: 0, Hi: 0.01}, {Lo: 0.99, Hi: 0.02}}, nil)
	})
	t.Run("empty", func(t *testing.T) {
		scanStatic(t, smallworld.UniformConfig(64, 97), []keyspace.Interval{{Lo: 0.5, Hi: 0.5}}, nil)
	})
	t.Run("whole", func(t *testing.T) {
		cfg := smallworld.UniformConfig(64, 98)
		cfg.Topology = keyspace.Ring
		scanStatic(t, cfg, []keyspace.Interval{{Lo: 0.001, Hi: 0.0009}}, nil)
	})
}

// checkScan compares one scan with the filter of stored inside iv.
func checkScan(t *testing.T, res store.ScanResult, iv keyspace.Interval, stored map[keyspace.Key]store.Stamp) {
	t.Helper()
	want := 0
	for k := range stored {
		if iv.Contains(k) {
			want++
		}
	}
	if len(res.KVs) != want {
		t.Fatalf("scan %v returned %d keys, %d stored inside it", iv, len(res.KVs), want)
	}
	for i, kv := range res.KVs {
		stamp, ok := stored[kv.Key]
		if !ok || !iv.Contains(kv.Key) {
			t.Fatalf("scan %v returned key %v, not stored inside it", iv, kv.Key)
		}
		if kv.Stamp != stamp || string(kv.Val) != string(valOf(kv.Key)) {
			t.Fatalf("scan %v: key %v at %v %q, want %v %q", iv, kv.Key, kv.Stamp, kv.Val, stamp, valOf(kv.Key))
		}
		// Arc order from iv.Lo, compared exactly rather than by rounded
		// arc lengths (ulp-adjacent keys past the wrap round to one arc):
		// keys at or above Lo ascending, then keys below it ascending.
		if i > 0 {
			prev := res.KVs[i-1].Key
			if pw, kw := prev < iv.Lo, kv.Key < iv.Lo; pw && !kw || pw == kw && prev >= kv.Key {
				t.Fatalf("scan %v: key %v not after %v along the arc (position %d)", iv, kv.Key, prev, i)
			}
		}
	}
}

// TestStoreScanAllocatesOnce pins a scan at one allocation, its result:
// the cell walk, the replica sets, the arc-order check and the sort a
// near-full interval needs all run in place.
func TestStoreScanAllocatesOnce(t *testing.T) {
	pub, _ := newServed(t, 1024, 1)
	st, err := store.New(pub, store.Config{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	val := make([]byte, 64)
	var k keyspace.Key
	for i := 0; i < 8192; i++ {
		k = dist.Sample(dist.NewPower(0.7), r)
		st.Put(r.Intn(pub.LiveN()), k, val)
	}
	for _, iv := range []keyspace.Interval{
		{Lo: 0.3, Hi: 0.3005},   // store-churn's width
		{Lo: 0.9995, Hi: 0.002}, // across the wrap
		// Near-full: the first cell holds k, the interval's far end.
		{Lo: k + 2e-12, Hi: k + 1e-12},
	} {
		src := r.Intn(pub.LiveN())
		if len(st.Scan(src, iv).KVs) == 0 {
			t.Fatalf("scan %v found nothing", iv)
		}
		if allocs := testing.AllocsPerRun(20, func() { st.Scan(src, iv) }); allocs != 1 {
			t.Fatalf("scan %v: %v allocations, want 1 (the result)", iv, allocs)
		}
	}
}
