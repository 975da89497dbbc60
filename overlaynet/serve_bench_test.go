package overlaynet_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/obs"
	"smallworld/overlaynet"
	"smallworld/xrand"
)

// BenchmarkServeUnderChurn measures the tentpole's read path: queries
// routed lock-free against Publisher snapshots, with and without
// concurrent writer-side churn. ns/op is per query. The churn=off rows
// are the steady-state allocation contract — 0 allocs/op — because the
// pinned SnapshotRouter holds no per-route scratch and re-pinning is a
// pointer assignment; churn=on rows additionally carry the writer's
// repair allocations amortised over the queries routed meanwhile
// (ReportAllocs counts process-wide).
//
// Worker goroutines are started before the timer and released through a
// gate, so the measured region contains only routing. On a single-core
// host the worker sweep records scheduling behaviour rather than
// speedup; the scaling shape needs GOMAXPROCS >= workers.
func BenchmarkServeUnderChurn(b *testing.B) {
	const churnInterval = 200 * time.Microsecond // ~5000 events/s when on
	type config struct {
		n, workers int
		churn      bool
	}
	configs := []config{
		{1 << 12, 1, false},
		{1 << 12, 4, false},
		{1 << 12, 1, true},
		{1 << 12, 4, true},
		{1 << 16, 4, false},
		{1 << 16, 4, true},
		{1 << 20, 4, true},
	}
	for _, cfg := range configs {
		churn := "off"
		if cfg.churn {
			churn = "on"
		}
		b.Run(fmt.Sprintf("N=%d/w=%d/churn=%s", cfg.n, cfg.workers, churn), func(b *testing.B) {
			benchServe(b, cfg.n, cfg.workers, cfg.churn, churnInterval)
		})
	}
}

// BenchmarkServeUnderChurnObs is the serve-while-churning configuration
// (N=4096, 4 workers, churn on) under the observability plane: the
// publisher carries a registry (and, in the tracing mode, a 1-in-128
// sampled tracer), so every snapshot the workers pin counts queries
// and hops. Acceptance: within 5% of the uninstrumented
// row and still 0 allocs/query beyond the writer's repair allocations.
func BenchmarkServeUnderChurnObs(b *testing.B) {
	const churnInterval = 200 * time.Microsecond
	for _, mode := range []string{"off", "counters", "tracing"} {
		b.Run(mode, func(b *testing.B) {
			var reg *obs.Registry
			var tracer *obs.Tracer
			switch mode {
			case "counters":
				reg = obs.NewRegistry()
			case "tracing":
				reg = obs.NewRegistry()
				tracer = obs.NewTracer(obs.TracerConfig{})
			}
			benchServeWith(b, 1<<12, 4, true, churnInterval, reg, tracer)
		})
	}
}

func benchServe(b *testing.B, n, workers int, churn bool, churnInterval time.Duration) {
	benchServeWith(b, n, workers, churn, churnInterval, nil, nil)
}

func benchServeWith(b *testing.B, n, workers int, churn bool, churnInterval time.Duration, reg *obs.Registry, tracer *obs.Tracer) {
	ctx := context.Background()
	dyn, err := overlaynet.NewIncremental(ctx, "smallworld-skewed", overlaynet.Options{
		N: n, Seed: 9, Dist: dist.NewPower(0.7), Topology: keyspace.Ring,
	})
	if err != nil {
		b.Fatal(err)
	}
	// A tight publish boundary keeps epochs turning over even when a
	// single-core scheduler starves the churn goroutine.
	pub, err := overlaynet.NewPublisher(dyn, overlaynet.PublishEvery(16))
	if err != nil {
		b.Fatal(err)
	}
	if reg != nil || tracer != nil {
		pub.SetObs(reg, tracer)
	}

	var stop atomic.Bool
	var events atomic.Int64
	var churnWG sync.WaitGroup
	if churn {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			rng := xrand.New(3)
			for !stop.Load() {
				var err error
				if rng.Bool(0.5) {
					err = pub.Join(ctx)
				} else if live := pub.LiveN(); live > 8 {
					err = pub.Leave(ctx, rng.Intn(live))
				}
				if err != nil {
					b.Error(err)
					return
				}
				events.Add(1)
				time.Sleep(churnInterval)
			}
		}()
	}

	// Workers are created and parked on the gate before the timer
	// starts; the timed region contains only query routing.
	var wg sync.WaitGroup
	gate := make(chan struct{})
	chunk := (b.N + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, b.N)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(count int, seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			snap := pub.Snapshot()
			router := snap.NewRouter().(*overlaynet.SnapshotRouter)
			<-gate
			for i := 0; i < count; i++ {
				if i%512 == 0 {
					router.Rebind(pub.Snapshot())
				}
				src := rng.Intn(router.Pinned().N())
				router.Route(src, keyspace.Key(rng.Float64()))
			}
		}(hi-lo, uint64(w)+17)
	}
	b.ReportAllocs()
	b.ResetTimer()
	close(gate)
	wg.Wait()
	b.StopTimer()
	stop.Store(true)
	churnWG.Wait()
	if churn {
		b.ReportMetric(float64(pub.Epoch()), "epochs")
		b.ReportMetric(float64(events.Load()), "events")
	}
}
