package shard

import (
	"bytes"
	"context"
	"math"
	"sort"
	"testing"

	"smallworld/keyspace"
	"smallworld/overlaynet"
	"smallworld/store"
	"smallworld/xrand"
)

// staticSource pins one snapshot forever — the fixture for explicit
// key populations.
type staticSource struct{ s *overlaynet.Snapshot }

func (ss staticSource) Snapshot() *overlaynet.Snapshot { return ss.s }

// keyedOverlay is a minimal test overlay over an explicit key
// population: each node links to its key-order neighbours, which is
// enough for greedy routing to terminate (successor-walk routing, as
// the paper's base ring). Only the methods NewSnapshot reads matter.
type keyedOverlay struct {
	keys []keyspace.Key
	rows [][]int32
}

func newKeyedOverlay(keys []keyspace.Key) *keyedOverlay {
	ov := &keyedOverlay{keys: keys}
	n := len(keys)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	pos := make([]int, n) // slot -> rank
	for r, u := range order {
		pos[u] = r
	}
	ov.rows = make([][]int32, n)
	for u := 0; u < n; u++ {
		r := pos[u]
		succ := order[(r+1)%n]
		pred := order[(r-1+n)%n]
		ov.rows[u] = []int32{int32(pred), int32(succ)}
	}
	return ov
}

func (ov *keyedOverlay) Kind() string                 { return "test-keyed" }
func (ov *keyedOverlay) N() int                       { return len(ov.keys) }
func (ov *keyedOverlay) Key(u int) keyspace.Key       { return ov.keys[u] }
func (ov *keyedOverlay) Keys() []keyspace.Key         { return ov.keys }
func (ov *keyedOverlay) Neighbors(u int) []int32      { return ov.rows[u] }
func (ov *keyedOverlay) NewRouter() overlaynet.Router { return nil }
func (ov *keyedOverlay) Stats() overlaynet.Stats      { return overlaynet.Stats{} }
func (ov *keyedOverlay) Topology() keyspace.Topology  { return keyspace.Ring }

// ulpChain returns count keys each one float64 ulp above the previous —
// the spacing a heavily skewed population produces when density
// outruns float resolution.
func ulpChain(x float64, count int) []keyspace.Key {
	ks := make([]keyspace.Key, count)
	for i := range ks {
		ks[i] = keyspace.Key(x)
		x = math.Nextafter(x, 2)
	}
	return ks
}

// boundaryClusterSnapshot builds a population whose ulp-dense clusters
// straddle shard boundaries of the 4-shard map: one around 0.25, one
// just below the ring wrap at 1.0 continuing at 0, plus isolated peers
// in each shard.
func boundaryClusterSnapshot() *overlaynet.Snapshot {
	keys := ulpChain(math.Nextafter(0.25, 0), 2)                                 // just below 0.25 (shard 0)
	keys = append(keys, ulpChain(0.25, 4)...)                                    // at/above 0.25 (shard 1)
	keys = append(keys, ulpChain(math.Nextafter(math.Nextafter(1, 0), 0), 2)...) // below wrap (shard 3)
	keys = append(keys, ulpChain(0, 3)...)                                       // above wrap (shard 0)
	keys = append(keys, 0.1, 0.4, 0.6, 0.62, 0.8, 0.9)
	return overlaynet.NewSnapshot(newKeyedOverlay(keys))
}

// newShardedStore builds a store whose locates ride a K-shard cluster,
// plus the cluster for lifecycle control.
func newShardedStore(t testing.TB, src Source, k int, cfg store.Config) (*store.Store, *Cluster) {
	t.Helper()
	cluster, err := New(src, Config{Shards: k})
	if err != nil {
		t.Fatal(err)
	}
	client, err := cluster.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Locator = client
	cfg.ShardOf = func(k keyspace.Key) int { return cluster.m.Of(k) }
	st, err := store.New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, cluster
}

func sameScan(a, b store.ScanResult) bool {
	if a.Hops != b.Hops || a.Cells != b.Cells || a.Repaired != b.Repaired || len(a.KVs) != len(b.KVs) {
		return false
	}
	for i := range a.KVs {
		if a.KVs[i].Key != b.KVs[i].Key || a.KVs[i].Stamp != b.KVs[i].Stamp ||
			!bytes.Equal(a.KVs[i].Val, b.KVs[i].Val) {
			return false
		}
	}
	return true
}

// TestStoreShardedLocatorBitIdentity drives the same operation
// sequence — puts, gets, scans, churn, sweeps — through a store whose
// locates run in-process and a store whose locates ride the 4-shard
// wire, over the same publisher. Every result must match bit for bit:
// the shard plane changes where locate work executes, never its
// outcome (ISSUE 10's store half of the headline invariant).
func TestStoreShardedLocatorBitIdentity(t *testing.T) {
	var crossMoves int64
	for _, k := range []int{2, 4, 8} {
		ctx := context.Background()
		pub := newChurnPublisher(t, 200, keyspace.Ring, 57)
		plain, err := store.New(pub, store.Config{Replicas: 3})
		if err != nil {
			t.Fatal(err)
		}
		sharded, cluster := newShardedStore(t, pub, k, store.Config{Replicas: 3})

		rng := xrand.New(101)
		val := func(i int) []byte { return []byte{byte(i), byte(i >> 8), 0xab} }
		for round := 0; round < 5; round++ {
			for i := 0; i < 60; i++ {
				src := rng.Intn(pub.Snapshot().N())
				key := keyspace.Key(rng.Float64())
				switch i % 3 {
				case 0:
					a := plain.Put(src, key, val(i))
					b := sharded.Put(src, key, val(i))
					if a != b {
						t.Fatalf("K=%d round %d put %d: plain %+v, sharded %+v", k, round, i, a, b)
					}
				case 1:
					a := plain.Get(src, key)
					b := sharded.Get(src, key)
					if a.Found != b.Found || a.Stamp != b.Stamp || a.Hops != b.Hops ||
						a.Repaired != b.Repaired || !bytes.Equal(a.Val, b.Val) {
						t.Fatalf("K=%d round %d get %d: plain %+v, sharded %+v", k, round, i, a, b)
					}
				case 2:
					lo := keyspace.Key(rng.Float64())
					iv := keyspace.Interval{Lo: lo, Hi: keyspace.Wrap(float64(lo) + 0.05 + 0.3*rng.Float64())}
					a := plain.Scan(src, iv)
					b := sharded.Scan(src, iv)
					if !sameScan(a, b) {
						t.Fatalf("K=%d round %d scan %v: plain %+v, sharded %+v", k, round, iv, a, b)
					}
				}
			}
			for e := 0; e < 6; e++ {
				if rng.Bool(0.5) {
					if err := pub.Join(ctx); err != nil {
						t.Fatal(err)
					}
				} else if live := pub.LiveN(); live > 32 {
					if err := pub.Leave(ctx, rng.Intn(live)); err != nil {
						t.Fatal(err)
					}
				}
			}
			pub.Publish()
			plain.Sweep()
			sharded.Sweep()
		}
		sa, sb := plain.Stats(), sharded.Stats()
		sb.CrossShardMoves = sa.CrossShardMoves // only the sharded store labels moves
		if sa != sb {
			t.Fatalf("K=%d stats diverged: plain %+v, sharded %+v", k, sa, sb)
		}
		crossMoves += sharded.Stats().CrossShardMoves
		cluster.Close()
	}
	// Whether one churn event's repair window straddles a boundary is
	// seed luck per K, but across K ∈ {2,4,8} some handover must have
	// crossed shards — otherwise the accounting is dead code.
	if crossMoves == 0 {
		t.Fatal("no churn handover crossed a shard boundary at any K")
	}
}

// TestStoreScanAcrossShardBoundary pins cross-shard range reads on the
// degenerate population: ulp-clustered keys straddling a shard
// boundary and the wrapping ring boundary. The sharded store's Scan
// must match the single-shard store's bit for bit.
func TestStoreScanAcrossShardBoundary(t *testing.T) {
	snap := boundaryClusterSnapshot()
	src := staticSource{snap}
	plain, err := store.New(src, store.Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	sharded, cluster := newShardedStore(t, src, 4, store.Config{Replicas: 2})
	defer cluster.Close()

	// Write a value at every identifier plus probes hugging each shard
	// boundary, through both stores identically.
	var written []keyspace.Key
	written = append(written, snap.Keys()...)
	for _, b := range []float64{0.25, 0.5, 0.75} {
		written = append(written,
			keyspace.Key(math.Nextafter(b, 0)), keyspace.Key(b), keyspace.Key(math.Nextafter(b, 1)))
	}
	written = append(written, keyspace.Key(math.Nextafter(1, 0)), 0)
	seen := map[keyspace.Key]bool{}
	w := 0
	for _, k := range written { // dedupe: identifiers may collide with probes
		if !seen[k] {
			seen[k], written[w] = true, k
			w++
		}
	}
	written = written[:w]
	for i, k := range written {
		v := []byte{byte(i), 0x5c}
		if a, b := plain.Put(0, k, v), sharded.Put(0, k, v); a != b {
			t.Fatalf("put %v: plain %+v, sharded %+v", k, a, b)
		}
	}

	ivs := []keyspace.Interval{
		{Lo: keyspace.Key(math.Nextafter(0.25, 0)), Hi: 0.26}, // ulp cluster across 0.25
		{Lo: 0.2, Hi: 0.55}, // two boundaries
		{Lo: 0.9, Hi: 0.1},  // wrapping ring boundary
		{Lo: keyspace.Key(math.Nextafter(1, 0)), Hi: 0.05},    // wrap from one ulp below 1
		{Lo: 0.74, Hi: keyspace.Key(math.Nextafter(0.75, 1))}, // boundary-hugging probes
		// Nearly full ring. Hi sits exactly on a shard boundary rather
		// than one ulp past it: a 1-ulp tail at 0.25 rounds out of the
		// 0.95 covered-length budget Scan walks by (float addition), a
		// pre-existing degeneracy orthogonal to sharding.
		{Lo: 0.3, Hi: 0.25},
	}
	for _, iv := range ivs {
		a := plain.Scan(1, iv)
		b := sharded.Scan(1, iv)
		if !sameScan(a, b) {
			t.Fatalf("scan %v: plain %d kvs %d hops, sharded %d kvs %d hops",
				iv, len(a.KVs), a.Hops, len(b.KVs), b.Hops)
		}
		if len(a.KVs) == 0 {
			t.Fatalf("scan %v: empty result, fixture broken", iv)
		}
	}
}
