package store_test

import (
	"context"
	"fmt"
	"testing"

	"smallworld/keyspace"
	"smallworld/store"
	"smallworld/xrand"
)

// BenchmarkStorePutGet measures the static-membership write+read pair:
// one replicated Put and one read-repairing Get per iteration, N=1024,
// R=3.
func BenchmarkStorePutGet(b *testing.B) {
	pub, _ := newServed(b, 1024, 1)
	st, err := store.New(pub, store.Config{Replicas: 3})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(9)
	val := make([]byte, 64)
	keys := make([]keyspace.Key, 1024)
	srcs := make([]int, 1024)
	for i := range keys {
		keys[i] = keyspace.Key(r.Float64())
		srcs[i] = r.Intn(pub.LiveN())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		src := srcs[i%len(srcs)]
		if res := st.Put(src, k, val); !res.Acked {
			b.Fatal("unacked put")
		}
		if res := st.Get(src, k); !res.Found {
			b.Fatal("lost key")
		}
	}
}

// BenchmarkStoreScanUnderChurn measures the serving pattern the store
// exists for: every iteration is one membership event (alternating
// join/leave, handed over event-driven) followed by one ordered range
// scan over the moving population.
func BenchmarkStoreScanUnderChurn(b *testing.B) {
	ctx := context.Background()
	pub, _ := newServed(b, 512, 2)
	st, err := store.New(pub, store.Config{Replicas: 3, EventDriven: true})
	if err != nil {
		b.Fatal(err)
	}
	pub.SetOwnershipWatcher(st.ApplyChange)
	r := xrand.New(13)
	val := make([]byte, 64)
	for i := 0; i < 2048; i++ {
		st.Put(0, keyspace.Key(r.Float64()), val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if err := pub.Join(ctx); err != nil {
				b.Fatal(err)
			}
		} else if err := pub.Leave(ctx, r.Intn(pub.LiveN())); err != nil {
			b.Fatal(err)
		}
		lo := keyspace.Key(r.Float64())
		iv := keyspace.Interval{Lo: lo, Hi: keyspace.Wrap(float64(lo) + 0.02)}
		st.Scan(r.Intn(pub.LiveN()), iv)
	}
}

// BenchmarkHandoverChurn isolates the handover cost itself: one
// leave+join cycle per iteration with the ownership events driving
// window repairs, no foreground queries. The population sweeps N at 8
// keys per node, so the per-event cost's dependence on N shows.
func BenchmarkHandoverChurn(b *testing.B) {
	for _, n := range []int{512, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := context.Background()
			pub, _ := newServed(b, n, 3)
			st, err := store.New(pub, store.Config{Replicas: 3, EventDriven: true})
			if err != nil {
				b.Fatal(err)
			}
			pub.SetOwnershipWatcher(st.ApplyChange)
			r := xrand.New(19)
			val := make([]byte, 64)
			for i := 0; i < 8*n; i++ {
				st.Put(0, keyspace.Key(r.Float64()), val)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pub.Leave(ctx, r.Intn(pub.LiveN())); err != nil {
					b.Fatal(err)
				}
				if err := pub.Join(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
