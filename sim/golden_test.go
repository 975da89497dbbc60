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
		"{Queries:933 Arrived:933 Failures:0 Timeouts:0 Joins:10 Leaves:6 Maintenance:0 Rejected:0 SessionMisses:0 StartNodes:96 FinalNodes:100 TotalMessages:405 MaintMessages:405 Degraded:127 Unroutable:0 Retries:136 Store:<nil> hopSum:2709 latSum:18.37292418159383}",
		"3f826eaff855a000 3fb51500f0b01c9a 3fb61af626f8ff9a 3fb7ee7b6db91ceb 3fd11d85dd3ff600",
		"1d86798cfe52c406",
	},
	"byzantine": {
		"{Queries:933 Arrived:926 Failures:7 Timeouts:7 Joins:10 Leaves:6 Maintenance:0 Rejected:0 SessionMisses:0 StartNodes:96 FinalNodes:100 TotalMessages:405 MaintMessages:405 Degraded:143 Unroutable:0 Retries:146 Store:<nil> hopSum:3026 latSum:19.962397526639755}",
		"3f82bc4047fca800 3fb40da108e8a020 3fb8d6c6375de100 3fc9915db0888b20 3fd814ebd707e500",
		"c38f1aa8725c7ba3",
	},
	"lossy-heavy": {
		"{Queries:986 Arrived:919 Failures:67 Timeouts:52 Joins:10 Leaves:6 Maintenance:0 Rejected:0 SessionMisses:0 StartNodes:96 FinalNodes:100 TotalMessages:405 MaintMessages:405 Degraded:580 Unroutable:15 Retries:1288 Store:<nil> hopSum:2701 latSum:99.96280502883343}",
		"3fb51f96c1e7ba00 3fd06eea692bec33 3fd5a5d228b2959d 3fe15151ea12208e 3fead79e011db0c8",
		"5dac84655b6df802",
	},
	"partition-heal": {
		"{Queries:933 Arrived:846 Failures:87 Timeouts:0 Joins:0 Leaves:0 Maintenance:0 Rejected:0 SessionMisses:0 StartNodes:96 FinalNodes:96 TotalMessages:0 MaintMessages:0 Degraded:24 Unroutable:87 Retries:1456 Store:<nil> hopSum:2560 latSum:28.2357402875468}",
		"3f8130a7ab5cfd80 3f903de2d69d9b00 3f935ad262ce9c00 3ff219ae21d22f67 40012cae94ec3110",
		"c75c998b6e401a9a",
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
