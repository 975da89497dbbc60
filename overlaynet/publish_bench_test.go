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
// the number is purely the capture, O(N/chunk): spine copies. The
// block clones the capture causes land in the next epoch's events and
// are timed by BenchmarkChurnEvent's publish arm. Set
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
// with a uniformly drawn leaver, so the population stays at n. The
// plain arm captures no snapshot, so no row block is ever shared and
// no edit clones one. The publish arm captures a snapshot after every
// defaultPublishEvery events and keeps it until the next, as a
// Publisher at its default cadence does, so ns/op includes the
// amortised capture and every block clone it causes. Both arms at one
// size churn the same overlay, built on first use so -bench filters
// skip it. Each arm reports heap-B/node after its events: the live
// heap the overlay (and the publish arm's last capture) holds beyond
// what was live before the build, per node, read after a GC with the
// timer stopped.
func BenchmarkChurnEvent(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16, 1 << 20} {
		var o *incrementalOverlay
		var base uint64 // live heap before the build
		rng := xrand.New(uint64(n) + 3)
		for _, arm := range []struct {
			name  string
			every int // events between captures; 0 never captures
		}{{"", 0}, {"publish/", defaultPublishEvery}} {
			events := 0 // across the b.N probes, so joins and leaves alternate
			b.Run(fmt.Sprintf("%sn=%d", arm.name, n), func(b *testing.B) {
				if o == nil {
					benchSnapSink = nil
					base = liveHeap()
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
					if arm.every > 0 && events%arm.every == 0 {
						benchSnapSink = o.CaptureSnapshot()
					}
				}
				b.StopTimer()
				reportHeapPerNode(b, base, o.N())
			})
		}
	}
}

// BenchmarkBuildIncremental measures NewIncremental on the repository
// benchmark's overlay, smallworld-skewed with power:0.7 keys on the
// ring: key placement, link sampling, the CSR and the writer's stores
// and in-lists. heap-B/node is the live heap the last build holds, per
// node, read after a GC with the timer stopped.
func BenchmarkBuildIncremental(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var o *incrementalOverlay
			var base uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				o = nil
				base = liveHeap()
				b.StartTimer()
				o = newBenchOverlay(b, n)
			}
			b.StopTimer()
			reportHeapPerNode(b, base, o.N())
			runtime.KeepAlive(o)
		})
	}
}

// liveHeap returns the bytes of live heap objects after a GC, as the
// repository benchmark reads heap_bytes_per_node.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// reportHeapPerNode reports the live heap above base, per node.
func reportHeapPerNode(b *testing.B, base uint64, n int) {
	b.ReportMetric((float64(liveHeap())-float64(base))/float64(n), "heap-B/node")
}

// BenchmarkRankNearest measures one rank-index lookup on a published
// snapshot of an incremental skewed ring: GreedyArrived, the check
// that ends every routed query; Responsible; and NearestExcluding, the
// lookup behind every link the writer draws, with the excluded rank at
// the target's successor. Targets are 4096 uniform keys. Sizes build
// lazily through publishBenchOverlay's cache, so -bench filters skip
// the ones they do not run.
func BenchmarkRankNearest(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		var s *Snapshot
		var targets []keyspace.Key
		var dists []float64
		var selfs []int
		arms := []struct {
			name string
			op   func(i int) int
		}{
			{"GreedyArrived", func(i int) int {
				if s.GreedyArrived(dists[i], targets[i]) {
					return 1
				}
				return 0
			}},
			{"Responsible", func(i int) int { return s.Responsible(targets[i]) }},
			{"NearestExcluding", func(i int) int { return s.rank.NearestExcluding(s.topo, targets[i], selfs[i]) }},
		}
		for _, arm := range arms {
			b.Run(fmt.Sprintf("%s/n=%d", arm.name, n), func(b *testing.B) {
				if s == nil {
					s = publishBenchOverlay(b, n).CaptureSnapshot()
					rng := xrand.New(uint64(n) + 11)
					for range 4096 {
						x := keyspace.Key(rng.Float64())
						targets = append(targets, x)
						dists = append(dists, s.topo.Distance(s.Key(s.Responsible(x)), x))
						selfs = append(selfs, s.rank.Successor(x))
					}
					b.ResetTimer()
				}
				b.ReportAllocs()
				sum := 0
				for i := 0; i < b.N; i++ {
					sum += arm.op(i & 4095)
				}
				benchIntSink = sum
			})
		}
	}
}

var (
	benchSnapSink *Snapshot
	benchIntSink  int

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
// events (defaultPublishEvery, half joins / half leaves, population
// stays ~n), so the timed capture is the epoch-boundary cost at
// Publisher's default cadence.
func publishBenchChurn(b *testing.B, o *incrementalOverlay, rng *xrand.Stream) {
	b.Helper()
	for ev := 0; ev < defaultPublishEvery; ev++ {
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
