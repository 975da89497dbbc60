package store_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/store"
	"smallworld/xrand"
)

// TestStoreScanMatchesFilter compares Scan with a brute-force filter of
// the stored keys on both topologies: random, wrapping and near-full
// intervals must return exactly the stored keys inside the interval, in
// arc order from its Lo, each at its last written version. Joins between
// rounds move replica sets, so scans also read across handed-over
// cells. The replica counts cover R=1, R >= N and R above eight.
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
	prev := math.Inf(-1)
	for i, kv := range res.KVs {
		stamp, ok := stored[kv.Key]
		if !ok || !iv.Contains(kv.Key) {
			t.Fatalf("scan %v returned key %v, not stored inside it", iv, kv.Key)
		}
		if kv.Stamp != stamp || string(kv.Val) != string(valOf(kv.Key)) {
			t.Fatalf("scan %v: key %v at %v %q, want %v %q", iv, kv.Key, kv.Stamp, kv.Val, stamp, valOf(kv.Key))
		}
		d := float64(keyspace.Wrap(float64(kv.Key) - float64(iv.Lo)))
		if d <= prev {
			t.Fatalf("scan %v: key %v at arc %v not after %v (position %d)", iv, kv.Key, d, prev, i)
		}
		prev = d
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
