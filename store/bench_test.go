package store_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"smallworld/dist"
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

// BenchmarkStoreScan measures store-churn's scan alone: N=4096, R=3,
// 32,768 power:0.7 keys, scans of width 5e-4 from random sources and
// starts drawn from the key density, static membership.
func BenchmarkStoreScan(b *testing.B) {
	pub, _ := newServed(b, 4096, 1)
	st, err := store.New(pub, store.Config{Replicas: 3})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(5)
	val := make([]byte, 128)
	for i := 0; i < 32768; i++ {
		st.Put(-1, dist.Sample(dist.NewPower(0.7), r), val)
	}
	ivs := make([]keyspace.Interval, 1024)
	srcs := make([]int, len(ivs))
	for i := range ivs {
		lo := dist.Sample(dist.NewPower(0.7), r)
		ivs[i] = keyspace.Interval{Lo: lo, Hi: keyspace.Wrap(float64(lo) + 5e-4)}
		srcs[i] = r.Intn(pub.LiveN())
	}
	kvs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kvs += len(st.Scan(srcs[i%len(srcs)], ivs[i%len(ivs)]).KVs)
	}
	b.ReportMetric(float64(kvs)/float64(b.N), "kvs/op")
}

// BenchmarkStorePutFresh measures a key's first Put: random-order new
// keys into a store that already holds 32,768 or 131,072 (N=1024, R=3,
// no locate route). Every 1/8 of the base count the store is rebuilt
// off the clock, so it holds between 1 and 1.125 times the base count.
func BenchmarkStorePutFresh(b *testing.B) {
	for _, base := range []int{32768, 131072} {
		b.Run(fmt.Sprintf("keys=%d", base), func(b *testing.B) {
			pub, _ := newServed(b, 1024, 1)
			r := xrand.New(21)
			val := make([]byte, 128)
			var st *store.Store
			fill := func() {
				var err error
				if st, err = store.New(pub, store.Config{Replicas: 3}); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < base; i++ {
					st.Put(-1, keyspace.Key(r.Float64()), val)
				}
			}
			fill()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%(base/8) == 0 {
					b.StopTimer()
					fill()
					b.StartTimer()
				}
				st.Put(-1, keyspace.Key(r.Float64()), val)
			}
		})
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
// keys per node, so the per-event cost's dependence on N shows. The
// load/ arm runs the same cycles while one goroutine issues Gets back
// to back, so each event also waits for the store mutex behind a
// closed-loop client; gets/op is how many Gets that client completed
// per cycle.
func BenchmarkHandoverChurn(b *testing.B) {
	for _, n := range []int{512, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { handoverChurn(b, n, false) })
	}
	b.Run("load/n=4096", func(b *testing.B) { handoverChurn(b, 4096, true) })
}

func handoverChurn(b *testing.B, n int, load bool) {
	ctx := context.Background()
	pub, _ := newServed(b, n, 3)
	st, err := store.New(pub, store.Config{Replicas: 3, EventDriven: true})
	if err != nil {
		b.Fatal(err)
	}
	pub.SetOwnershipWatcher(st.ApplyChange)
	r := xrand.New(19)
	val := make([]byte, 64)
	keys := make([]keyspace.Key, 8*n)
	for i := range keys {
		keys[i] = keyspace.Key(r.Float64())
		st.Put(0, keys[i], val)
	}
	var gets atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if load {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Sources below n/2 stay inside the population.
				st.Get(i%(n/2), keys[i%len(keys)])
				gets.Add(1)
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	g0 := gets.Load()
	for i := 0; i < b.N; i++ {
		if err = pub.Leave(ctx, r.Intn(pub.LiveN())); err == nil {
			err = pub.Join(ctx)
		}
		if err != nil {
			break
		}
	}
	g1 := gets.Load()
	b.StopTimer()
	close(stop)
	wg.Wait()
	if err != nil {
		b.Fatal(err)
	}
	if load {
		b.ReportMetric(float64(g1-g0)/float64(b.N), "gets/op")
	}
}
