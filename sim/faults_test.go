package sim_test

import (
	"context"
	"reflect"
	"testing"

	"smallworld/netmodel"
	"smallworld/obs"
	"smallworld/overlaynet"
	"smallworld/sim"
)

// lossyScenario is the lossy preset shrunk to test size with tracing
// on, so fault runs have a full replay witness.
func lossyScenario(seed uint64) sim.Scenario {
	sc, _ := sim.Preset("lossy", 64)
	sc.Duration = 50
	sc.Seed = seed
	sc.RecordTrace = true
	return sc
}

// TestRunDeterminismUnderFaults extends the replay witness to the
// message plane: a fault-plane scenario run twice on identically built
// overlays must produce bit-identical traces, series, hop and latency
// sequences — loss draws, backoff jitter, byzantine detours and all.
func TestRunDeterminismUnderFaults(t *testing.T) {
	base := lossyScenario(5)
	base.Faults = &netmodel.Config{Loss: 0.05, ByzantineFrac: 0.05, DeadFrac: 0.05}
	run := func(sc sim.Scenario) *sim.Report {
		rep, err := sim.Run(context.Background(), buildProtocol(t, 64, 9), sc)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return rep
	}
	a, b := run(base), run(base)
	if len(a.Trace) == 0 {
		t.Fatal("trace empty; determinism test has no witness")
	}
	if !a.Robust {
		t.Fatal("fault-plane run not marked robust")
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatal("event traces differ between identical fault runs")
	}
	if !reflect.DeepEqual(a.Series, b.Series) {
		t.Fatal("metric series differ between identical fault runs")
	}
	if !reflect.DeepEqual(a.Hops, b.Hops) {
		t.Fatal("hop sequences differ between identical fault runs")
	}
	if !reflect.DeepEqual(a.Latencies, b.Latencies) {
		t.Fatal("latency sequences differ between identical fault runs")
	}
	// Re-rolling only the fault seed must move the trajectory without
	// touching the churn/load stream assignment.
	reseeded := base
	reseeded.FaultSeed = 99
	c := run(reseeded)
	if reflect.DeepEqual(a.Trace, c.Trace) {
		t.Fatal("different fault seeds replayed the same trace")
	}
	if c.Totals.Joins != a.Totals.Joins || c.Totals.Leaves != a.Totals.Leaves {
		t.Fatalf("fault seed changed churn: %d/%d joins, %d/%d leaves",
			a.Totals.Joins, c.Totals.Joins, a.Totals.Leaves, c.Totals.Leaves)
	}
}

// TestTotalLossTerminates: at 100% per-message loss nothing is ever
// delivered, yet every query must terminate through its retry budget —
// the run may not hang and may not mislabel the outcome. Only queries
// whose source already holds the target region arrive (zero sends).
func TestTotalLossTerminates(t *testing.T) {
	sc := lossyScenario(11)
	sc.Faults = &netmodel.Config{Loss: 1}
	rep, err := sim.Run(context.Background(), buildProtocol(t, 64, 9), sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Totals.Queries == 0 {
		t.Fatal("no queries issued")
	}
	if rep.Totals.Timeouts == 0 {
		t.Fatal("100% loss produced no timeouts")
	}
	if rep.Totals.Unroutable != 0 {
		t.Fatalf("%d unroutable under pure loss, want 0 (lost ≠ partitioned)", rep.Totals.Unroutable)
	}
	for _, h := range rep.Hops {
		if h != 0 {
			t.Fatalf("arrived query consumed %v hops under 100%% loss", h)
		}
	}
}

// TestCrossPartitionUnroutable: with the key space cut in two from the
// start and never healed, cross-component queries must finish as
// Unroutable — not hang, not time out (their failures are unreachable
// peers, not lost messages), and a healthy share of same-component
// queries still delivers.
func TestCrossPartitionUnroutable(t *testing.T) {
	sc := lossyScenario(13)
	sc.Faults = &netmodel.Config{}
	sc.Arrivals = []sim.Arrival{
		&sim.PartitionEvent{At: 0, Cuts: []float64{0.25, 0.75}},
	}
	rep, err := sim.Run(context.Background(), buildProtocol(t, 64, 9), sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tot := rep.Totals
	if tot.Queries == 0 {
		t.Fatal("no queries issued")
	}
	unr := float64(tot.Unroutable) / float64(tot.Queries)
	if unr < 0.25 || unr > 0.75 {
		t.Errorf("unroutable share %.2f across a half/half cut, want ~0.5", unr)
	}
	if tot.Arrived == 0 {
		t.Error("no same-component query delivered")
	}
	if tot.Timeouts > tot.Queries/20 {
		t.Errorf("%d timeouts on a loss-free partitioned plane, want ~0", tot.Timeouts)
	}
}

// TestRetryBudgetZero: Retries -1 ("no resends") must spend zero
// retries and deliver strictly less than the default budget under
// heavy loss — the knob is real at both ends.
func TestRetryBudgetZero(t *testing.T) {
	run := func(retries int) sim.Totals {
		sc := lossyScenario(17)
		sc.Faults = &netmodel.Config{Loss: 0.3}
		sc.Retry = overlaynet.RobustPolicy{Retries: retries}
		rep, err := sim.Run(context.Background(), buildProtocol(t, 64, 9), sc)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return rep.Totals
	}
	noRetry, withRetry := run(-1), run(0)
	if noRetry.Retries != 0 {
		t.Fatalf("retry budget 0 spent %d retries", noRetry.Retries)
	}
	if withRetry.Retries == 0 {
		t.Fatal("default budget spent no retries at 30% loss")
	}
	if noRetry.FailRate() <= withRetry.FailRate() {
		t.Errorf("fail rate %.3f without retries ≤ %.3f with, want worse",
			noRetry.FailRate(), withRetry.FailRate())
	}
}

// TestLossyPresetAcceptance is the issue's acceptance bar: the lossy
// preset (5% per-hop loss) must deliver at least 99% of queries —
// possibly degraded — with bounded latency inflation (well under one
// hop-timeout per hop; clean hops cost ~0.003 each).
func TestLossyPresetAcceptance(t *testing.T) {
	sc, err := sim.Preset("lossy", 128)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 3
	rep, err := sim.Run(context.Background(), buildProtocol(t, 128, 6), sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tot := rep.Totals
	if tot.Queries < 500 {
		t.Fatalf("only %d queries; preset misconfigured", tot.Queries)
	}
	delivered := 1 - tot.FailRate()
	if delivered < 0.99 {
		t.Errorf("delivered %.4f at 5%% loss, want ≥ 0.99", delivered)
	}
	if tot.Retries == 0 {
		t.Error("no retries at 5% loss; the fault plane is inert")
	}
	if p95 := rep.LatencyQuantile(0.95); p95 <= 0 || p95 > 0.5 {
		t.Errorf("latency p95 %.4f, want in (0, 0.5]", p95)
	}
}

// TestPartitionHealRecovery is the issue's second acceptance bar: in
// the partition-heal preset, cross-partition queries fail during the
// cut (t∈(40,60]) and the success rate returns to 100% within one
// window of healing.
func TestPartitionHealRecovery(t *testing.T) {
	sc, err := sim.Preset("partition-heal", 64)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 8
	rep, err := sim.Run(context.Background(), buildProtocol(t, 64, 9), sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	fail := rep.Get(sim.SeriesFailRate)
	unr := rep.Get(sim.SeriesUnroutable)
	if fail == nil || unr == nil {
		t.Fatal("missing fail/unroutable series")
	}
	for _, p := range fail.Points {
		switch {
		case p.T <= 40:
			if p.V != 0 {
				t.Errorf("t=%g: fail rate %.3f before the cut, want 0", p.T, p.V)
			}
		case p.T > 40 && p.T <= 60:
			if p.V < 0.2 {
				t.Errorf("t=%g: fail rate %.3f during the cut, want substantial", p.T, p.V)
			}
		case p.T > 70:
			// One window of grace after healing for in-flight residue.
			if p.V != 0 {
				t.Errorf("t=%g: fail rate %.3f after healing, want 0", p.T, p.V)
			}
		}
	}
	// The failures during the cut are typed as partition, not loss.
	for _, p := range unr.Points {
		if p.T > 40 && p.T <= 60 && p.V == 0 {
			t.Errorf("t=%g: no unroutable queries during the cut", p.T)
		}
	}
	// Recovery bar: the first full post-heal window is already clean.
	for _, p := range fail.Points {
		if p.T == 70 && p.V > 0.05 {
			t.Errorf("t=70: fail rate %.3f, want ≈0 within one window of healing", p.V)
		}
	}
}

// TestByzantinePresetRuns: the byzantine preset terminates (MaxHops
// bounds hijack loops) and still delivers a majority of queries.
func TestByzantinePresetRuns(t *testing.T) {
	sc, err := sim.Preset("byzantine", 64)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 4
	sc.Duration = 50
	rep, err := sim.Run(context.Background(), buildProtocol(t, 64, 9), sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tot := rep.Totals
	if tot.Queries == 0 {
		t.Fatal("no queries issued")
	}
	if rate := 1 - tot.FailRate(); rate < 0.8 {
		t.Errorf("delivered %.3f with 10%% byzantine nodes, want ≥ 0.8", rate)
	}
	if tot.Degraded == 0 {
		t.Error("no degraded deliveries; byzantine detours inert")
	}
}

// BenchmarkMessageLoop is the fault-plane counterpart of
// BenchmarkEventLoop: one full lossy-preset run on a live protocol
// overlay, per-hop flights and all.
func BenchmarkMessageLoop(b *testing.B) {
	sc, err := sim.Preset("lossy", 64)
	if err != nil {
		b.Fatal(err)
	}
	sc.Seed = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ov := buildProtocol(b, 64, uint64(i))
		b.StartTimer()
		rep, err := sim.Run(context.Background(), ov, sc)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Totals.Queries == 0 {
			b.Fatal("inert run")
		}
	}
}

// A flight's byzantine detour target is not a candidate: its span
// records rank -1, while every hop and timeout span ranks a real one.
func TestFlightHijackSpanRank(t *testing.T) {
	sc, err := sim.Preset("byzantine", 64)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 4
	sc.Duration = 30
	tracer := obs.NewTracer(obs.TracerConfig{Sample: 1, Keep: 1024})
	sc.Tracer = tracer
	if _, err := sim.Run(context.Background(), buildProtocol(t, 64, 9), sc); err != nil {
		t.Fatalf("run: %v", err)
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
