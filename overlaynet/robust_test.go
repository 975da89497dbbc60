package overlaynet

import (
	"context"
	"sync"
	"testing"

	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/obs"
	"smallworld/xrand"
)

func robustSnapshot(t *testing.T, n int) *Snapshot {
	t.Helper()
	ov, err := Build(context.Background(), "smallworld-uniform", Options{N: n, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return NewSnapshot(ov)
}

func robustPairs(s *Snapshot, seed uint64, count int) ([]int, []keyspace.Key) {
	r := xrand.New(seed)
	srcs := make([]int, count)
	targets := make([]keyspace.Key, count)
	for i := range srcs {
		srcs[i] = r.Intn(s.N())
		targets[i] = keyspace.Key(r.Float64())
	}
	return srcs, targets
}

// A nil transport is a perfect network: robust routing must agree with
// the plain SnapshotRouter hop for hop, at zero latency.
func TestRobustRouterPerfectNetwork(t *testing.T) {
	s := robustSnapshot(t, 256)
	rr, err := NewRobustRouter(s, nil, RobustPolicy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := s.NewRouter()
	srcs, targets := robustPairs(s, 2, 500)
	for i := range srcs {
		got := rr.RouteRobust(srcs[i], targets[i])
		want := plain.Route(srcs[i], targets[i])
		if got.Outcome != Delivered {
			t.Fatalf("query %d: outcome %v on a perfect network", i, got.Outcome)
		}
		if got.Hops != want.Hops || got.Dest != want.Dest {
			t.Fatalf("query %d: (hops %d, dest %d) vs plain (hops %d, dest %d)",
				i, got.Hops, got.Dest, want.Hops, want.Dest)
		}
		if got.Latency != 0 || got.Retries != 0 {
			t.Fatalf("query %d: latency %v retries %d on a perfect network", i, got.Latency, got.Retries)
		}
	}
}

// At 5% per-hop loss the default retry budget must carry ≥99% of
// queries through, at a latency price.
func TestRobustRouterLoss(t *testing.T) {
	s := robustSnapshot(t, 512)
	m, err := netmodel.New(netmodel.Config{Loss: 0.05}, 7)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRobustRouter(s, m, RobustPolicy{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	srcs, targets := robustPairs(s, 4, 2000)
	arrived, retries := 0, 0
	var latency float64
	for i := range srcs {
		res := rr.RouteRobust(srcs[i], targets[i])
		if res.Outcome.Arrived() {
			arrived++
		}
		retries += res.Retries
		latency += res.Latency
	}
	if rate := float64(arrived) / float64(len(srcs)); rate < 0.99 {
		t.Errorf("delivery rate %.4f at 5%% loss, want >= 0.99", rate)
	}
	if retries == 0 {
		t.Error("no retries recorded at 5% loss")
	}
	if latency <= 0 {
		t.Error("no latency accumulated")
	}
}

// 100% loss: every query needing at least one hop must time out —
// terminate, not spin.
func TestRobustRouterTotalLoss(t *testing.T) {
	s := robustSnapshot(t, 128)
	m, _ := netmodel.New(netmodel.Config{Loss: 1}, 9)
	rr, err := NewRobustRouter(s, m, RobustPolicy{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	srcs, targets := robustPairs(s, 6, 300)
	for i := range srcs {
		res := rr.RouteRobust(srcs[i], targets[i])
		switch res.Outcome {
		case TimedOut:
			if res.Hops != 0 {
				t.Fatalf("query %d: %d hops delivered under 100%% loss", i, res.Hops)
			}
			if res.Latency <= 0 {
				t.Fatalf("query %d: timed out at zero cost", i)
			}
		case Delivered:
			// Legal only when the source already was the responsible node.
			if res.Hops != 0 {
				t.Fatalf("query %d: delivered with %d hops under 100%% loss", i, res.Hops)
			}
		default:
			t.Fatalf("query %d: outcome %v under 100%% loss", i, res.Outcome)
		}
	}
}

// Retry budget 0 (Retries: -1): no resends ever, and a visibly worse
// delivery rate under heavy loss than the default budget.
func TestRobustRouterRetryBudgetZero(t *testing.T) {
	s := robustSnapshot(t, 256)
	run := func(retries int, seed uint64) (arrived, resends int) {
		m, _ := netmodel.New(netmodel.Config{Loss: 0.3}, 13)
		rr, err := NewRobustRouter(s, m, RobustPolicy{Retries: retries}, seed)
		if err != nil {
			t.Fatal(err)
		}
		srcs, targets := robustPairs(s, 8, 1500)
		for i := range srcs {
			res := rr.RouteRobust(srcs[i], targets[i])
			if res.Outcome.Arrived() {
				arrived++
			}
			resends += res.Retries
		}
		return
	}
	noRetryArrived, noRetryResends := run(-1, 21)
	defArrived, _ := run(0, 21)
	if noRetryResends != 0 {
		t.Errorf("retry budget 0 recorded %d resends", noRetryResends)
	}
	if noRetryArrived >= defArrived {
		t.Errorf("no-retry arrived %d >= default-budget arrived %d at 30%% loss",
			noRetryArrived, defArrived)
	}
}

// A query whose source and target sit in different partition
// components must come back Unroutable — and terminate.
func TestRobustRouterPartitionUnroutable(t *testing.T) {
	s := robustSnapshot(t, 256)
	m, _ := netmodel.New(netmodel.Config{}, 17)
	if err := m.SetPartition(netmodel.Partition{Cuts: []float64{0.25, 0.75}}); err != nil {
		t.Fatal(err)
	}
	rr, err := NewRobustRouter(s, m, RobustPolicy{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	cross, unroutable := 0, 0
	srcs, targets := robustPairs(s, 10, 1000)
	for i := range srcs {
		srcComp := m.Component(s.Key(srcs[i]))
		dstComp := m.Component(s.rank.KeyAt(s.rank.Nearest(s.topo, targets[i])))
		res := rr.RouteRobust(srcs[i], targets[i])
		if srcComp != dstComp {
			cross++
			if res.Outcome == Unroutable {
				unroutable++
			}
			if res.Outcome.Arrived() && res.Hops > 0 {
				// Arrivals are only legal when a same-component node is as
				// close to the target as the responsible one.
				continue
			}
		}
	}
	if cross == 0 {
		t.Fatal("no cross-partition pairs drawn")
	}
	if frac := float64(unroutable) / float64(cross); frac < 0.9 {
		t.Errorf("only %.2f of cross-partition queries unroutable", frac)
	}
}

// Same seeds ⇒ bit-identical robust results, draw for draw.
func TestRobustRouterDeterminism(t *testing.T) {
	run := func() []RobustResult {
		s := robustSnapshot(t, 128)
		m, _ := netmodel.New(netmodel.Config{Loss: 0.1, SlowFrac: 0.1, ByzantineFrac: 0.05}, 23)
		rr, err := NewRobustRouter(s, m, RobustPolicy{}, 31)
		if err != nil {
			t.Fatal(err)
		}
		srcs, targets := robustPairs(s, 12, 800)
		out := make([]RobustResult, len(srcs))
		for i := range srcs {
			out[i] = rr.RouteRobust(srcs[i], targets[i])
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// The published fault mask must mirror the plane's dead set, stamp the
// fault epoch, and make routers skip dead candidates — measurably
// cheaper than discovering the same deaths by timeout.
func TestPublisherFaultMask(t *testing.T) {
	ctx := context.Background()
	dyn, err := NewIncremental(ctx, "smallworld-uniform", Options{N: 256, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(dyn)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := netmodel.New(netmodel.Config{DeadFrac: 0.1}, 29)
	pub.SetFaultPlane(m)

	snap := pub.Snapshot()
	if snap.FaultEpoch() != m.FaultEpoch() {
		t.Errorf("snapshot fault epoch %d, plane %d", snap.FaultEpoch(), m.FaultEpoch())
	}
	deadN := 0
	for u := 0; u < snap.N(); u++ {
		want := m.Dead(snap.Key(u))
		if snap.Dead(u) != want {
			t.Fatalf("slot %d: mask %v, plane %v", u, snap.Dead(u), want)
		}
		if want {
			deadN++
		}
	}
	if snap.DeadCount() != deadN {
		t.Errorf("DeadCount %d, want %d", snap.DeadCount(), deadN)
	}
	if deadN == 0 {
		t.Fatal("no dead nodes drawn; test is vacuous")
	}

	// Masked vs maskless routing over the same faulty transport: the
	// mask must save timeouts (latency) without costing deliveries.
	maskless := NewSnapshot(dyn)
	withMask, err := NewRobustRouter(snap, m, RobustPolicy{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewRobustRouter(maskless, m, RobustPolicy{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	srcs, targets := robustPairs(snap, 14, 600)
	var latMask, latNo float64
	arrMask, arrNo := 0, 0
	for i := range srcs {
		if snap.Dead(srcs[i]) {
			continue
		}
		a := withMask.RouteRobust(srcs[i], targets[i])
		b := without.RouteRobust(srcs[i], targets[i])
		latMask += a.Latency
		latNo += b.Latency
		if a.Outcome.Arrived() {
			arrMask++
		}
		if b.Outcome.Arrived() {
			arrNo++
		}
	}
	if latMask >= latNo {
		t.Errorf("masked latency %.3f not below maskless %.3f", latMask, latNo)
	}
	if arrMask < arrNo {
		t.Errorf("mask cost deliveries: %d vs %d", arrMask, arrNo)
	}
}

// The fault-injected serve path under -race: readers route against
// published snapshots (mask included) while one writer churns and
// another cuts/heals partitions. No Transport is shared — the mask is
// the only fault state readers touch.
func TestServeFaultInjectedRace(t *testing.T) {
	ctx := context.Background()
	dyn, err := NewIncremental(ctx, "smallworld-uniform", Options{N: 256, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(dyn, PublishEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := netmodel.New(netmodel.Config{DeadFrac: 0.1}, 41)
	pub.SetFaultPlane(m)

	const queriesPerReader = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			snap := pub.Snapshot()
			router := snap.NewRouter().(*SnapshotRouter)
			for i := 0; i < queriesPerReader; i++ {
				if i%64 == 0 {
					snap = pub.Snapshot()
					router.Rebind(snap)
				}
				src := r.Intn(snap.N())
				router.Route(src, keyspace.Key(r.Float64()))
			}
		}(uint64(100 + w))
	}

	wg.Add(1)
	go func() { // churn writer
		defer wg.Done()
		r := xrand.New(51)
		for i := 0; i < 400; i++ {
			if r.Bool(0.5) && pub.LiveN() > 64 {
				_ = pub.Leave(ctx, r.Intn(pub.LiveN()))
			} else {
				_ = pub.Join(ctx)
			}
		}
		close(stop)
	}()

	wg.Add(1)
	go func() { // partition cut/heal toggler
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				m.Heal()
				pub.Publish()
				return
			default:
			}
			if i%2 == 0 {
				_ = m.SetPartition(netmodel.Partition{Cuts: []float64{0.3, 0.6}})
			} else {
				m.Heal()
			}
			pub.Publish()
		}
	}()

	wg.Wait()
}

// A byzantine detour target is not a candidate: its span records rank
// -1, while every hop and timeout span ranks a real candidate.
func TestRobustHijackSpanRank(t *testing.T) {
	// robustSnapshot's overlay, served by a Publisher that traces every
	// query.
	dyn, err := NewIncremental(context.Background(), "smallworld-uniform", Options{N: 256, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(dyn)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.TracerConfig{Sample: 1, Keep: 400})
	pub.SetObs(nil, tracer)
	s := pub.Snapshot()
	m, _ := netmodel.New(netmodel.Config{Loss: 0.05, ByzantineFrac: 0.2}, 61)
	rr, err := NewRobustRouter(s, m, RobustPolicy{}, 67)
	if err != nil {
		t.Fatal(err)
	}
	srcs, targets := robustPairs(s, 71, 400)
	for i := range srcs {
		rr.RouteRobust(srcs[i], targets[i])
	}
	hijacks := 0
	for _, tr := range tracer.Traces() {
		for _, sp := range tr.Spans {
			switch {
			case sp.Kind == obs.SpanHijack:
				hijacks++
				if sp.Rank != -1 {
					t.Fatalf("hijack span to node %d records rank %d, want -1", sp.Node, sp.Rank)
				}
			case sp.Rank < 0:
				t.Fatalf("%v span to node %d records rank %d", sp.Kind, sp.Node, sp.Rank)
			}
		}
	}
	if hijacks == 0 {
		t.Fatal("no hijack spans traced; the byzantine plane is inert")
	}
}
