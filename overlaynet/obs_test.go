package overlaynet_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/obs"
	"smallworld/overlaynet"
	"smallworld/xrand"
)

// TestOutcomeLabelOrder pins the contract between overlaynet.Outcome and
// the obs exposition: RouteOutcomes[i] must surface under the label
// Outcome(i).String(). obs cannot import this package to check it
// itself, so the pin lives here; if either enum order or the label table
// changes without the other, a counter would report under a wrong name.
func TestOutcomeLabelOrder(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.NextHint()
	for i := range reg.RouteOutcomes {
		reg.RouteOutcomes[i].Add(h, uint64(i)+1)
	}
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for i := range reg.RouteOutcomes {
		want := fmt.Sprintf("smallworld_route_outcomes_total{outcome=%q} %d",
			overlaynet.Outcome(i).String(), i+1)
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q — outcome %d is mislabelled", want, i)
		}
	}
}

// buildObsOverlay constructs the deterministic overlay every test here
// routes over. Building twice with the same seed yields identical link
// tables, which is what the bit-identical comparisons rely on.
func buildObsOverlay(t *testing.T, n int) overlaynet.Dynamic {
	t.Helper()
	dyn, err := overlaynet.NewIncremental(context.Background(), "smallworld-skewed", overlaynet.Options{
		N: n, Seed: 9, Dist: dist.NewPower(0.7), Topology: keyspace.Ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dyn
}

// TestSnapshotObsCounters routes a fixed workload through an
// instrumented published snapshot and checks two things: the counters
// equal the totals recomputed from the returned results, and
// instrumentation did not change a single routing decision
// (bit-identical results vs an uninstrumented twin).
func TestSnapshotObsCounters(t *testing.T) {
	const n, queries = 256, 400

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TracerConfig{Sample: 8})
	pub, err := overlaynet.NewPublisher(buildObsOverlay(t, n))
	if err != nil {
		t.Fatal(err)
	}
	pub.SetObs(reg, tracer)
	snap := pub.Snapshot()
	router := snap.NewRouter().(*overlaynet.SnapshotRouter)

	// The uninstrumented twin: same overlay, ad-hoc snapshot (which by
	// construction carries no hooks), same query stream.
	plain := overlaynet.NewSnapshot(buildObsOverlay(t, n)).NewRouter()

	var hops, arrived, failed uint64
	rng, rng2 := xrand.New(21), xrand.New(21)
	for i := 0; i < queries; i++ {
		src := rng.Intn(n)
		target := keyspace.Key(rng.Float64())
		res := router.Route(src, target)
		if want := plain.Route(rng2.Intn(n), keyspace.Key(rng2.Float64())); res != want {
			t.Fatalf("query %d: instrumented result %+v != uninstrumented %+v", i, res, want)
		}
		hops += uint64(res.Hops)
		if res.Arrived {
			arrived++
		} else {
			failed++
		}
	}

	if got := reg.RouteQueries.Value(); got != queries {
		t.Errorf("RouteQueries = %d, want %d", got, queries)
	}
	if got := reg.RouteHops.Value(); got != hops {
		t.Errorf("RouteHops = %d, want %d", got, hops)
	}
	if got := reg.RouteFailures.Value(); got != failed {
		t.Errorf("RouteFailures = %d, want %d", got, failed)
	}
	if got := reg.HopsPerQuery.Count(); got != arrived {
		t.Errorf("HopsPerQuery count = %d, want %d arrived", got, arrived)
	}
	if got := reg.SnapNodes.Value(); got != n {
		t.Errorf("SnapNodes = %d, want %d", got, n)
	}

	// 1-in-8 sampling over 400 queries must have retained traces, and a
	// sampled trace of the greedy walk carries its hop spans.
	traces := tracer.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces retained at Sample=8")
	}
	for _, tr := range traces {
		if tr.Op != "route" || len(tr.Spans) != int(tr.End) {
			t.Errorf("trace %d: op=%q spans=%d end=%g, want one span per hop",
				tr.ID, tr.Op, len(tr.Spans), tr.End)
		}
	}
}

// TestAdHocSnapshotUninstrumented pins that instrumentation is carried
// by published snapshots only: a NewSnapshot capture taken from the same
// overlay after SetObs must not touch the registry.
func TestAdHocSnapshotUninstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	dyn := buildObsOverlay(t, 128)
	pub, err := overlaynet.NewPublisher(dyn)
	if err != nil {
		t.Fatal(err)
	}
	pub.SetObs(reg, nil)
	before := reg.RouteQueries.Value()

	adhoc := overlaynet.NewSnapshot(dyn).NewRouter()
	rng := xrand.New(5)
	for i := 0; i < 50; i++ {
		adhoc.Route(rng.Intn(128), keyspace.Key(rng.Float64()))
	}
	if got := reg.RouteQueries.Value(); got != before {
		t.Errorf("ad-hoc snapshot routed into the registry: %d -> %d", before, got)
	}
}

// TestRobustRouterObsCounters checks the robust path's counters against
// totals recomputed from its typed results, including the per-outcome
// series and the virtual-latency histogram. The router takes its hooks
// from a Publisher's snapshots and keeps counting across a republish.
func TestRobustRouterObsCounters(t *testing.T) {
	const n, queries = 256, 300
	pub, err := overlaynet.NewPublisher(buildObsOverlay(t, n))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pub.SetObs(reg, nil)
	rr, err := overlaynet.NewRobustRouter(pub.Snapshot(), nil, overlaynet.RobustPolicy{}, 3)
	if err != nil {
		t.Fatal(err)
	}

	var hops, retries, arrived uint64
	var outcomes [4]uint64
	rng := xrand.New(11)
	for i := 0; i < queries; i++ {
		if i == queries/2 {
			if err := pub.Join(context.Background()); err != nil {
				t.Fatal(err)
			}
			pub.Publish()
			rr.Rebind(pub.Snapshot())
		}
		res := rr.RouteRobust(rng.Intn(n), keyspace.Key(rng.Float64()))
		hops += uint64(res.Hops)
		retries += uint64(res.Retries)
		outcomes[int(res.Outcome)]++
		if res.Outcome.Arrived() {
			arrived++
		}
	}

	if got := reg.RouteQueries.Value(); got != queries {
		t.Errorf("RouteQueries = %d, want %d", got, queries)
	}
	if got := reg.RouteHops.Value(); got != hops {
		t.Errorf("RouteHops = %d, want %d", got, hops)
	}
	if got := reg.RouteRetries.Value(); got != retries {
		t.Errorf("RouteRetries = %d, want %d", got, retries)
	}
	for i, want := range outcomes {
		if got := reg.RouteOutcomes[i].Value(); got != want {
			t.Errorf("RouteOutcomes[%s] = %d, want %d", overlaynet.Outcome(i), got, want)
		}
	}
	if got := reg.HopsPerQuery.Count(); got != arrived {
		t.Errorf("HopsPerQuery count = %d, want %d", got, arrived)
	}
	if got := reg.VirtLatency.Count(); got != queries {
		t.Errorf("VirtLatency count = %d, want %d", got, queries)
	}
}

// TestObsStripAndRestore pins that routers take their hooks only from
// the snapshot they are pinned to: after Publisher.SetObs(nil, nil) and
// a publish, a SnapshotRouter and a RobustRouter rebound to the new
// snapshot count nothing, and after a fresh SetObs both count into the
// new registry again.
func TestObsStripAndRestore(t *testing.T) {
	const n, queries = 128, 50
	pub, err := overlaynet.NewPublisher(buildObsOverlay(t, n))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pub.SetObs(reg, nil)
	sr := pub.Snapshot().NewRouter().(*overlaynet.SnapshotRouter)
	rr, err := overlaynet.NewRobustRouter(pub.Snapshot(), nil, overlaynet.RobustPolicy{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(13)
	// route rebinds both routers to the current snapshot, routes a batch
	// through each, and checks how many queries each counted into reg.
	route := func(step string, reg *obs.Registry, want uint64) {
		t.Helper()
		sr.Rebind(pub.Snapshot())
		rr.Rebind(pub.Snapshot())
		before := reg.RouteQueries.Value()
		for i := 0; i < queries; i++ {
			sr.Route(rng.Intn(n), keyspace.Key(rng.Float64()))
		}
		if got := reg.RouteQueries.Value() - before; got != want {
			t.Errorf("%s: SnapshotRouter counted %d queries, want %d", step, got, want)
		}
		before = reg.RouteQueries.Value()
		for i := 0; i < queries; i++ {
			rr.RouteRobust(rng.Intn(n), keyspace.Key(rng.Float64()))
		}
		if got := reg.RouteQueries.Value() - before; got != want {
			t.Errorf("%s: RobustRouter counted %d queries, want %d", step, got, want)
		}
	}
	route("instrumented", reg, queries)
	pub.SetObs(nil, nil)
	pub.Publish()
	route("stripped", reg, 0)
	fresh := obs.NewRegistry()
	pub.SetObs(fresh, nil)
	route("restored", fresh, queries)
	route("restored (old registry)", reg, 0)
}

// TestServeObsRace is the instrumented-serving race gate: concurrent
// workers route against published snapshots — counting queries and
// hops, sampling traces — while the writer churns and republishes. Run under -race (CI does), it guards every atomic in the
// obs hot path; in any mode it checks no query went uncounted.
func TestServeObsRace(t *testing.T) {
	const (
		n       = 128
		workers = 4
		perW    = 500
	)
	ctx := context.Background()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TracerConfig{Sample: 32})
	pub, err := overlaynet.NewPublisher(buildObsOverlay(t, n), overlaynet.PublishEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	pub.SetObs(reg, tracer)

	var churnWG sync.WaitGroup
	stop := make(chan struct{})
	churnWG.Add(1)
	go func() { // churn: joins and leaves, republishing every 4 events
		defer churnWG.Done()
		rng := xrand.New(3)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if rng.Bool(0.5) {
				err = pub.Join(ctx)
			} else if live := pub.LiveN(); live > 8 {
				err = pub.Leave(ctx, rng.Intn(live))
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func(seed uint64) {
			defer workerWG.Done()
			rng := xrand.New(seed)
			router := pub.Snapshot().NewRouter().(*overlaynet.SnapshotRouter)
			for i := 0; i < perW; i++ {
				if i%64 == 0 {
					router.Rebind(pub.Snapshot())
				}
				src := rng.Intn(router.Pinned().N())
				router.Route(src, keyspace.Key(rng.Float64()))
			}
		}(uint64(w) + 17)
	}

	workerWG.Wait()
	close(stop)
	churnWG.Wait()

	if got := reg.RouteQueries.Value(); got != workers*perW {
		t.Errorf("RouteQueries = %d, want %d (every query counted exactly once)", got, workers*perW)
	}
}
