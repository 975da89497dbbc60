package overlaynet_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/obs"
	"smallworld/overlaynet"
	"smallworld/xrand"
)

// BenchmarkRouteRobust measures fault-exposed routing over a pinned
// snapshot: greedy forwarding where every hop pays a transport draw,
// loss triggers retry/backoff, and dead candidates are either skipped
// via the published mask (mask=on) or discovered by timeout (mask=off)
// — the cost the serving-path fault wiring exists to avoid. ns/op is
// per query. The perfect-network row is the steady-state allocation
// contract: candidate scratch is reused, so routing allocates nothing
// once warm.
func BenchmarkRouteRobust(b *testing.B) {
	for _, cfg := range robustConfigs {
		b.Run(fmt.Sprintf("N=%d/%s", 1<<12, cfg.name), func(b *testing.B) {
			benchRouteRobust(b, 1<<12, cfg.cfg, cfg.mask)
		})
	}
}

// robustConfig is one fault configuration robust routing is measured
// under: a netmodel plane and whether the snapshot carries its mask.
type robustConfig struct {
	name string
	cfg  netmodel.Config
	mask bool
}

var robustConfigs = []robustConfig{
	{"perfect", netmodel.Config{}, false},
	{"loss=5%", netmodel.Config{Loss: 0.05}, false},
	{"dead=10%/mask=off", netmodel.Config{DeadFrac: 0.1}, false},
	{"dead=10%/mask=on", netmodel.Config{DeadFrac: 0.1}, true},
}

// BenchmarkRouteRobustObs is BenchmarkRouteRobust's loss=5% row under
// the observability plane: counters routes over a snapshot a Publisher
// instrumented with a registry, tracing adds the 1-in-128 sampling
// gate. Same acceptance bar as BenchmarkRouteGreedyObs — ≤5% over off,
// 0 allocs/op in every mode.
func BenchmarkRouteRobustObs(b *testing.B) {
	for _, mode := range []string{"off", "counters", "tracing"} {
		b.Run(mode, func(b *testing.B) {
			benchRouteRobustObs(b, mode)
		})
	}
}

func benchRouteRobustObs(b *testing.B, mode string) {
	var reg *obs.Registry
	var tracer *obs.Tracer
	switch mode {
	case "counters":
		reg = obs.NewRegistry()
	case "tracing":
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(obs.TracerConfig{})
	}
	benchRouteRobustWith(b, 1<<12, netmodel.Config{Loss: 0.05}, false, reg, tracer)
}

func benchRouteRobust(b *testing.B, n int, cfg netmodel.Config, mask bool) {
	benchRouteRobustWith(b, n, cfg, mask, nil, nil)
}

func benchRouteRobustWith(b *testing.B, n int, cfg netmodel.Config, mask bool, reg *obs.Registry, tracer *obs.Tracer) {
	rr, srcs, targets := robustWorkload(b, n, cfg, mask, reg, tracer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(srcs) - 1)
		rr.RouteRobust(srcs[j], targets[j])
	}
}

// TestRouteRobustZeroAlloc makes the zero-allocation contract a test:
// once its candidate scratch is warm, RouteRobust allocates nothing
// under every BenchmarkRouteRobust fault configuration plus a byzantine
// one, with observability off and with counters on.
func TestRouteRobustZeroAlloc(t *testing.T) {
	byzantine := robustConfig{"byzantine=10%", netmodel.Config{Loss: 0.05, ByzantineFrac: 0.1}, false}
	for _, cfg := range append(slices.Clip(robustConfigs), byzantine) {
		for _, counters := range []bool{false, true} {
			var reg *obs.Registry
			if counters {
				reg = obs.NewRegistry()
			}
			rr, srcs, targets := robustWorkload(t, 1<<10, cfg.cfg, cfg.mask, reg, nil)
			batch := func() {
				for i := range srcs {
					rr.RouteRobust(srcs[i], targets[i])
				}
			}
			batch() // warm the candidate scratch
			// AllocsPerRun truncates the per-run mean, so each run routes
			// the whole batch: one allocation anywhere in it fails.
			if allocs := testing.AllocsPerRun(4, batch); allocs != 0 {
				t.Errorf("%s/counters=%v: %v allocations per %d routes, want 0", cfg.name, counters, allocs, len(srcs))
			}
		}
	}
}

// robustWorkload builds a skewed ring of n nodes, a RobustRouter over
// its snapshot behind a netmodel plane built from cfg (nil transport
// for the zero config), and 4096 queries from live sources. The
// snapshot carries the plane's mask when mask is set, and reg and
// tracer when either is not nil, both published by a Publisher.
func robustWorkload(tb testing.TB, n int, cfg netmodel.Config, mask bool, reg *obs.Registry, tracer *obs.Tracer) (*overlaynet.RobustRouter, []int, []keyspace.Key) {
	ctx := context.Background()
	dyn, err := overlaynet.NewIncremental(ctx, "smallworld-skewed", overlaynet.Options{
		N: n, Seed: 9, Dist: dist.NewPower(0.7), Topology: keyspace.Ring,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var tr overlaynet.Transport
	var m *netmodel.Model
	if cfg != (netmodel.Config{}) {
		if m, err = netmodel.New(cfg, 7); err != nil {
			tb.Fatal(err)
		}
		tr = m
	}
	snap := overlaynet.NewSnapshot(dyn)
	if mask || reg != nil || tracer != nil {
		pub, err := overlaynet.NewPublisher(dyn)
		if err != nil {
			tb.Fatal(err)
		}
		if mask {
			pub.SetFaultPlane(m)
		}
		pub.SetObs(reg, tracer)
		snap = pub.Snapshot()
	}
	rr, err := overlaynet.NewRobustRouter(snap, tr, overlaynet.RobustPolicy{}, 3)
	if err != nil {
		tb.Fatal(err)
	}
	rng := xrand.New(21)
	srcs := make([]int, 4096)
	targets := make([]keyspace.Key, len(srcs))
	for i := range srcs {
		for {
			srcs[i] = rng.Intn(snap.N())
			if !snap.Dead(srcs[i]) {
				break
			}
		}
		targets[i] = keyspace.Key(rng.Float64())
	}
	return rr, srcs, targets
}
