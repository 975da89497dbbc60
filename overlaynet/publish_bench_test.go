package overlaynet

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// BenchmarkPublishEpoch measures the per-epoch cost of capturing a
// snapshot after 64 membership events (the default epoch boundary)
// through the chunked copy-on-write stores. The 64 events are applied
// outside the timer, followed by a GC checkpoint so collector assists
// owed to the churn's garbage are never paid inside the timed window;
// the number is purely the capture, O(Δ·chunk + N/chunk). Set
// SW_PUBLISH_BENCH_FULL=1 to extend the size sweep to 2^22 (the
// PERFORMANCE.md frontier run).
func BenchmarkPublishEpoch(b *testing.B) {
	sizes := []int{1 << 16, 1 << 18, 1 << 20}
	if os.Getenv("SW_PUBLISH_BENCH_FULL") != "" {
		sizes = append(sizes, 1<<22)
	}
	for _, n := range sizes {
		o := publishBenchOverlay(b, n)
		b.Run(fmt.Sprintf("chunked/n=%d", n), func(b *testing.B) {
			rng := xrand.New(uint64(n) + 5)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				publishBenchChurn(b, o, rng)
				runtime.GC()
				b.StartTimer()
				benchSnapSink = o.CaptureSnapshot()
			}
		})
	}
}

// BenchmarkChurnEvent measures one membership event on the writer side
// of an incremental overlay: each op is one Join or Leave, alternating,
// with a uniformly drawn leaver, so the population stays at n and the
// delta fold runs every defaultCompactEvery ops, its cost amortised
// into ns/op as it is in a live overlay. No snapshot is captured.
func BenchmarkChurnEvent(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16, 1 << 20} {
		var o *incrementalOverlay // built on first use, so -bench filters skip it
		rng := xrand.New(uint64(n) + 3)
		events := 0 // across the b.N probes, so joins and leaves alternate
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if o == nil {
				o = newBenchOverlay(b, n)
				b.ResetTimer()
			}
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if events%2 == 0 {
					err = o.Join(ctx)
				} else {
					err = o.Leave(ctx, rng.Intn(o.N()))
				}
				if err != nil {
					b.Fatal(err)
				}
				events++
			}
		})
	}
}

var (
	benchSnapSink *Snapshot

	publishBenchMu    sync.Mutex
	publishBenchCache = map[int]*incrementalOverlay{}
)

// publishBenchOverlay builds (once per size, cached across -count
// repetitions — construction at 2^20 costs seconds and is not what is
// being measured) an incremental overlay of n nodes.
func publishBenchOverlay(b *testing.B, n int) *incrementalOverlay {
	b.Helper()
	publishBenchMu.Lock()
	defer publishBenchMu.Unlock()
	if o, ok := publishBenchCache[n]; ok {
		return o
	}
	o := newBenchOverlay(b, n)
	publishBenchCache[n] = o
	return o
}

// newBenchOverlay builds an incremental skewed ring of n nodes.
func newBenchOverlay(b *testing.B, n int) *incrementalOverlay {
	b.Helper()
	dyn, err := NewIncremental(context.Background(), "smallworld-skewed", Options{
		N: n, Seed: 9, Dist: dist.NewPower(0.7), Topology: keyspace.Ring,
	})
	if err != nil {
		b.Fatal(err)
	}
	return dyn.(*incrementalOverlay)
}

// publishBenchChurn applies exactly one epoch's worth of membership
// events (64, half joins / half leaves, population stays ~n). The
// count matches defaultCompactEvery, so the delta fold lands inside
// afterEvent and the timed capture is the pure epoch-boundary cost —
// exactly where Publisher's default cadence takes it.
func publishBenchChurn(b *testing.B, o *incrementalOverlay, rng *xrand.Stream) {
	b.Helper()
	for ev := 0; ev < defaultCompactEvery; ev++ {
		if ev%2 == 0 {
			if err := o.Join(context.Background()); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := o.Leave(context.Background(), rng.Intn(o.N())); err != nil {
				b.Fatal(err)
			}
		}
	}
}
