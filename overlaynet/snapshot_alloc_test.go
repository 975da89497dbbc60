package overlaynet_test

import (
	"context"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/overlaynet"
	"smallworld/xrand"
)

// TestSnapshotRouteZeroAlloc pins the snapshot read path at zero
// allocations: SnapshotRouter.Route and a GreedyInit/GreedyStep walk,
// on a snapshot published from an incremental overlay after churn (so
// walks cross row blocks cloned by the churn and blocks still shared
// with the build), first without and then with a fault mask.
func TestSnapshotRouteZeroAlloc(t *testing.T) {
	ctx := context.Background()
	dyn, err := overlaynet.NewIncremental(ctx, "smallworld-skewed", overlaynet.Options{
		N: 1 << 12, Seed: 9, Dist: dist.NewPower(0.7), Topology: keyspace.Ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := overlaynet.NewPublisher(dyn)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	for ev := 0; ev < 300; ev++ {
		if ev%2 == 0 {
			err = pub.Join(ctx)
		} else {
			err = pub.Leave(ctx, rng.Intn(pub.LiveN()))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	plane, err := netmodel.New(netmodel.Config{DeadFrac: 0.1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, masked := range []bool{false, true} {
		if masked {
			pub.SetFaultPlane(plane)
		} else {
			pub.Publish()
		}
		snap := pub.Snapshot()
		if masked != (snap.DeadCount() > 0) {
			t.Fatalf("masked=%v: %d dead slots", masked, snap.DeadCount())
		}
		var srcs []int
		var targets []keyspace.Key
		for len(srcs) < 1024 {
			if src := rng.Intn(snap.N()); !snap.Dead(src) {
				srcs = append(srcs, src)
				targets = append(targets, dist.Sample(dist.NewPower(0.7), rng))
			}
		}
		router := snap.NewRouter()
		routes := func() {
			for i, src := range srcs {
				router.Route(src, targets[i])
			}
		}
		steps := func() {
			for i, cur := range srcs {
				d, ok := snap.GreedyInit(cur, targets[i])
				for hops := 0; ok && hops < snap.GreedyGuard(); hops++ {
					next, dNext := snap.GreedyStep(cur, d, targets[i])
					if next == -1 {
						break
					}
					cur, d = next, dNext
				}
				snap.GreedyArrived(d, targets[i])
			}
		}
		routes()
		steps()
		// AllocsPerRun truncates the per-run mean, so each run walks the
		// whole batch: one allocation anywhere in it fails.
		if allocs := testing.AllocsPerRun(4, routes); allocs != 0 {
			t.Errorf("masked=%v: Route made %v allocations per %d routes, want 0", masked, allocs, len(srcs))
		}
		if allocs := testing.AllocsPerRun(4, steps); allocs != 0 {
			t.Errorf("masked=%v: GreedyStep walks made %v allocations per %d walks, want 0", masked, allocs, len(srcs))
		}
	}
}
