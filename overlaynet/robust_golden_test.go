package overlaynet

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/netmodel"
)

// robustGolden holds the recorded digest of every RouteRobust result
// per (topology, plane, retry budget). Re-recording one is a behaviour
// change, not a refactor.
var robustGolden = map[string]string{
	"ring/lossy-slow-byz/retries=-1": "0d1ed1625e420e42",
	"ring/lossy-slow-byz/retries=0":  "e9ee6cd998c722d3",
	"ring/dead/mask=on/retries=-1":   "e5c459ddaca07ca8",
	"ring/dead/mask=on/retries=0":    "e5c459ddaca07ca8",
	"ring/dead/mask=off/retries=-1":  "ea7b1e72e379562d",
	"ring/dead/mask=off/retries=0":   "0d8be03648c4b0cd",
	"ring/partition/retries=-1":      "295dee6045ffae19",
	"ring/partition/retries=0":       "f7a39b0d0602a627",
	"line/lossy-slow-byz/retries=-1": "1104233183529888",
	"line/lossy-slow-byz/retries=0":  "3d0b144abe815ef7",
	"line/dead/mask=on/retries=-1":   "89d2f61d6bddcc50",
	"line/dead/mask=on/retries=0":    "89d2f61d6bddcc50",
	"line/dead/mask=off/retries=-1":  "52b7da4db448a50c",
	"line/dead/mask=off/retries=0":   "ce6e18cfc1c3fb06",
	"line/partition/retries=-1":      "5f4cbd8d44d87be8",
	"line/partition/retries=0":       "d77a7a6444b7c79f",
}

// TestRobustGoldenTrace pins RouteRobust bit for bit: every field of
// every RobustResult, Latency by its IEEE bit pattern, over ring and
// line snapshots, four fault planes and two retry budgets. The digest
// catches a reordered float addition (timeout and backoff summed in a
// different order round differently) as surely as a changed outcome.
func TestRobustGoldenTrace(t *testing.T) {
	ctx := context.Background()
	var seen [4]int
	retried := 0
	for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
		opts := Options{N: 512, Seed: 5, Topology: topo, Dist: dist.NewPower(0.7)}
		dyn, err := NewIncremental(ctx, "smallworld-skewed", opts)
		if err != nil {
			t.Fatal(err)
		}
		type plane struct {
			name string
			cfg  netmodel.Config
			mask bool
			cut  bool
		}
		for _, p := range []plane{
			{"lossy-slow-byz", netmodel.Config{Loss: 0.1, SlowFrac: 0.1, ByzantineFrac: 0.05}, false, false},
			{"dead/mask=on", netmodel.Config{DeadFrac: 0.1}, true, false},
			{"dead/mask=off", netmodel.Config{DeadFrac: 0.1}, false, false},
			{"partition", netmodel.Config{Loss: 0.02}, false, true},
		} {
			for _, retries := range []int{-1, 0} {
				name := fmt.Sprintf("%s/%s/retries=%d", topo, p.name, retries)
				m, err := netmodel.New(p.cfg, 43)
				if err != nil {
					t.Fatal(err)
				}
				if p.cut {
					if err := m.SetPartition(netmodel.Partition{Cuts: []float64{0.25, 0.75}}); err != nil {
						t.Fatal(err)
					}
				}
				snap := NewSnapshot(dyn)
				if p.mask {
					pub, err := NewPublisher(dyn)
					if err != nil {
						t.Fatal(err)
					}
					pub.SetFaultPlane(m)
					snap = pub.Snapshot()
				}
				rr, err := NewRobustRouter(snap, m, RobustPolicy{Retries: retries}, 47)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				srcs, targets := robustPairs(snap, 53, 700)
				for i := range srcs {
					res := rr.RouteRobust(srcs[i], targets[i])
					fmt.Fprintf(h, "%d %d %d %x %d\n", res.Outcome, res.Hops, res.Retries,
						math.Float64bits(res.Latency), res.Dest)
					seen[res.Outcome]++
					retried += res.Retries
				}
				got := fmt.Sprintf("%016x", h.Sum64())
				if want := robustGolden[name]; got != want {
					t.Errorf("%s: digest %s, recorded %s", name, got, want)
				}
			}
		}
	}
	for o, c := range seen {
		if c == 0 {
			t.Errorf("no %v outcome across the golden planes; coverage lost", Outcome(o))
		}
	}
	if retried == 0 {
		t.Error("no retries across the golden planes; coverage lost")
	}
}
