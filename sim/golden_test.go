package sim_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"smallworld/netmodel"
	"smallworld/obs"
	"smallworld/sim"
)

// flightGolden is the recorded outcome of each hostile preset: the run
// Totals, the latency quantiles by IEEE bit pattern, and a digest of
// the per-query hop and latency sequences plus every flight's trace
// (failed flights included, whose latency the report does not keep).
// Re-recording one is a behaviour change, not a refactor.
var flightGolden = map[string]struct{ totals, quantiles, digest string }{
	"lossy": {
		"{Queries:933 Arrived:933 Failures:0 Timeouts:0 Joins:10 Leaves:6 Maintenance:0 Rejected:0 SessionMisses:0 StartNodes:96 FinalNodes:100 TotalMessages:1180 MaintMessages:1180 Degraded:124 Unroutable:0 Retries:136 Store:<nil> hopSum:2725 latSum:18.41615946814054}",
		"3f8225a126d0bc00 3fb4cf4a21d632cd 3fb64590569b5666 3fc33dccc1fa4c02 3fd18ac52585c200",
		"dfe4cdb753170846",
	},
	"byzantine": {
		"{Queries:932 Arrived:911 Failures:21 Timeouts:21 Joins:10 Leaves:6 Maintenance:0 Rejected:0 SessionMisses:0 StartNodes:96 FinalNodes:100 TotalMessages:1180 MaintMessages:1180 Degraded:208 Unroutable:0 Retries:251 Store:<nil> hopSum:3406 latSum:28.520117045481}",
		"3f83423785c84800 3fb6b33efd07c400 3fc6f244a6a1e8a0 3fd22647e73ce77f 3fedff7f31c19700",
		"e2a91a7099b6191e",
	},
	"lossy-heavy": {
		"{Queries:984 Arrived:832 Failures:152 Timeouts:92 Joins:10 Leaves:6 Maintenance:0 Rejected:0 SessionMisses:0 StartNodes:96 FinalNodes:100 TotalMessages:1180 MaintMessages:1180 Degraded:524 Unroutable:60 Retries:1820 Store:<nil> hopSum:2747 latSum:117.10453390347223}",
		"3fb5b718c832af00 3fd70f045681658d 3fde1c4e0cf4fb06 3fe6fb417a6844f0 3ff6cb94002d8000",
		"4c57898f093130dc",
	},
	"partition-heal": {
		"{Queries:933 Arrived:845 Failures:88 Timeouts:0 Joins:0 Leaves:0 Maintenance:0 Rejected:0 SessionMisses:0 StartNodes:96 FinalNodes:96 TotalMessages:0 MaintMessages:0 Degraded:20 Unroutable:88 Retries:1383 Store:<nil> hopSum:2549 latSum:25.23324832352924}",
		"3f8176b086d57300 3f907c89dc688f34 3f94450f93afd000 3fe9f1d793cbb2d4 400394f2017af050",
		"46110492099c07ff",
	},
}

// TestFlightGolden pins message flights bit for bit on the three
// hostile presets, plus lossy-heavy: the lossy preset over a plane
// with 30% loss, dead and byzantine nodes, where hops exhaust their
// retry budget and fall back to next-best candidates. A flight schedules each retry at now+(timeout+wait)
// while RobustRouter adds the two separately; comparing latencies by
// bit pattern catches an executor that sums them in another order.
func TestFlightGolden(t *testing.T) {
	for name, want := range flightGolden {
		t.Run(name, func(t *testing.T) {
			sc, err := sim.Preset(strings.TrimSuffix(name, "-heavy"), 96)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasSuffix(name, "-heavy") {
				sc.Faults = &netmodel.Config{Loss: 0.3, DeadFrac: 0.05, ByzantineFrac: 0.05}
			}
			sc.Seed = 29
			tracer := obs.NewTracer(obs.TracerConfig{Sample: 1, Keep: 2048})
			sc.Tracer = tracer
			rep, err := sim.Run(context.Background(), buildProtocol(t, 96, 31), sc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			totals := fmt.Sprintf("%+v", rep.Totals)
			var qs []string
			for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
				qs = append(qs, fmt.Sprintf("%x", math.Float64bits(rep.LatencyQuantile(p))))
			}
			quantiles := strings.Join(qs, " ")
			h := fnv.New64a()
			for i := range rep.Latencies {
				fmt.Fprintf(h, "%x ", math.Float64bits(rep.Latencies[i]))
			}
			for i := range rep.Hops {
				fmt.Fprintf(h, "%x ", math.Float64bits(rep.Hops[i]))
			}
			traces := tracer.Traces()
			if len(traces) != rep.Totals.Queries || tracer.Missed() != 0 {
				t.Fatalf("%d traces (%d missed) for %d queries", len(traces), tracer.Missed(), rep.Totals.Queries)
			}
			for _, tr := range traces {
				fmt.Fprintf(h, "\n%d %x %x %x %s %d:", tr.Src, math.Float64bits(tr.Target),
					math.Float64bits(tr.Start), math.Float64bits(tr.End), tr.Outcome, tr.Dropped)
				for _, sp := range tr.Spans {
					rank := sp.Rank
					if sp.Kind == obs.SpanHijack {
						rank = 0 // a detour target is not a candidate; its rank is not pinned here
					}
					fmt.Fprintf(h, " %x/%x/%d/%d/%d/%d/%x", math.Float64bits(sp.T), math.Float64bits(sp.Dur),
						sp.Node, rank, sp.Retries, sp.Kind, math.Float64bits(sp.Dist))
				}
			}
			digest := fmt.Sprintf("%016x", h.Sum64())
			if totals != want.totals {
				t.Errorf("totals\n got %s\nwant %s", totals, want.totals)
			}
			if quantiles != want.quantiles {
				t.Errorf("latency quantiles\n got %s\nwant %s", quantiles, want.quantiles)
			}
			if digest != want.digest {
				t.Errorf("hop/latency digest %s, recorded %s", digest, want.digest)
			}
		})
	}
}
