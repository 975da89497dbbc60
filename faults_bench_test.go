package smallworld

import (
	"testing"

	"smallworld/keyspace"
	"smallworld/xrand"
)

// The fault-path benchmarks: routing across a network with a live
// FailSet (20% of nodes crashed, stale links still in place). Both
// policies route through a per-benchmark Router and report allocs/op —
// the visited set (an epoch-marked table) and the
// frame stack live on reusable Router scratch, so the steady state is
// allocation-free for both (0 allocs/op is part of the acceptance bar).

// benchFailSetup builds a 4096-node ring overlay, a 20% FailSet, and a
// deterministic batch of live sources with targets.
func benchFailSetup(tb testing.TB) (*Network, *FailSet, []int, []keyspace.Key) {
	tb.Helper()
	cfg := UniformConfig(4096, 96)
	cfg.Topology = keyspace.Ring
	nw, err := Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	fs := NewFailSet(nw, xrand.New(97), 0.2)
	r := xrand.New(98)
	const batch = 1024
	srcs := make([]int, 0, batch)
	targets := make([]keyspace.Key, 0, batch)
	for len(srcs) < batch {
		src := r.Intn(nw.N())
		if fs.Dead(src) {
			continue
		}
		srcs = append(srcs, src)
		targets = append(targets, keyspace.Key(r.Float64()))
	}
	return nw, fs, srcs, targets
}

// TestFaultRoutesZeroAlloc turns the benchmarks' 0 allocs/op into a
// check: once a warm-up batch has grown the router's scratch, whole
// batches of either fault walk allocate nothing.
func TestFaultRoutesZeroAlloc(t *testing.T) {
	nw, fs, srcs, targets := benchFailSetup(t)
	router := nw.NewRouter()
	for name, route := range map[string]func(int, keyspace.Key, *FailSet) Route{
		"RouteGreedyAvoiding": router.RouteGreedyAvoiding,
		"RouteBacktracking":   router.RouteBacktracking,
	} {
		batch := func() {
			for i := range srcs {
				route(srcs[i], targets[i], fs)
			}
		}
		batch()
		// AllocsPerRun truncates the per-run mean, so each run routes
		// the whole batch: one allocation anywhere in it fails.
		if allocs := testing.AllocsPerRun(4, batch); allocs != 0 {
			t.Errorf("%s: %v allocations per %d routes, want 0", name, allocs, len(srcs))
		}
	}
}

func BenchmarkRouteGreedyAvoiding(b *testing.B) {
	nw, fs, srcs, targets := benchFailSetup(b)
	router := nw.NewRouter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(srcs)
		router.RouteGreedyAvoiding(srcs[j], targets[j], fs)
	}
}

func BenchmarkRouteBacktracking(b *testing.B) {
	nw, fs, srcs, targets := benchFailSetup(b)
	router := nw.NewRouter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(srcs)
		router.RouteBacktracking(srcs[j], targets[j], fs)
	}
}

func BenchmarkClosestLive(b *testing.B) {
	nw, fs, _, targets := benchFailSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.closestLive(targets[i%len(targets)], fs.dead)
	}
}
