// Package sim is a deterministic discrete-event dynamics engine for the
// overlays in this repository: it drives any overlaynet.Dynamic overlay
// through sustained membership churn while a query load generator
// issues routed lookups concurrently (in virtual time), and records
// windowed time-series health metrics.
//
// The paper's argument is about overlays that stay navigable while peer
// populations are skewed and alive; the static experiment tables
// evaluate snapshots, and this package evaluates trajectories. A
// scenario composes arrival processes — Poisson join/leave churn
// (PoissonChurn), flash-crowd bursts (FlashCrowd), diurnal sine-wave
// activity (Diurnal), correlated mass failure with recovery
// (MassFailure), session-lifetime departures reusing package dist
// (Sessions), periodic maintenance rounds (Maintenance), and fixed op
// traces (Trace) — with a Load of routed queries, and Run executes the
// event schedule on a binary-heap queue keyed on virtual time.
//
// Scenarios can additionally run their queries over a hostile network:
// setting Scenario.Faults builds a netmodel fault plane, and every
// query becomes a per-hop message flight — sampled link latencies,
// loss, dead and byzantine nodes, partitions (PartitionEvent) — that
// drives overlaynet.RobustWalk, the retry state machine RobustRouter
// also runs: timeouts, retries with backoff under Scenario.Retry's
// budget, and next-best fallbacks, with each wait scheduled in virtual
// time. Reports then carry typed outcome rates (delivered /
// degraded / timed-out / unroutable) and wall-clock latency quantiles
// per window. Presets "lossy", "partition-heal" and "byzantine" are
// ready-made hostile scenarios.
//
// Everything is seeded through xrand: the same (overlay, Scenario)
// pair replays bit-identically, event for event and point for point,
// whatever the host machine or GOMAXPROCS. Fault streams are seeded
// from Scenario.FaultSeed, split away from the Seed master chain, so a
// scenario with Faults removed (or re-rolled via FaultSeed) replays
// the exact churn and load event sequence it always had.
//
//	ov, _ := overlaynet.Build(ctx, "protocol",
//		overlaynet.Options{N: 256, Seed: 1, Dist: dist.NewPower(0.7)})
//	sc, _ := sim.Preset("steady", 256)
//	report, _ := sim.Run(ctx, ov.(overlaynet.Dynamic), sc)
//	fmt.Println(report)          // windowed health table
//	report.WriteJSON(os.Stdout)  // machine-readable series
//
// Overlays that additionally implement overlaynet.Messenger get repair
// traffic metered per membership event; overlaynet.Maintainer unlocks
// the Maintenance arrival process. Static topologies become drivable
// through overlaynet.NewRebuild.
package sim

import (
	"context"
	"fmt"
	"math"

	"smallworld/netmodel"
	"smallworld/obs"
	"smallworld/overlaynet"
)

// Scenario describes one simulation: how long to run, how membership
// changes, what query load runs concurrently, and how metrics are
// windowed. The zero value of every field means its documented default,
// so Scenario{Arrivals: ..., Load: ...} is runnable.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Duration is the virtual-time horizon. Default 100.
	Duration float64
	// Window is the metrics window length. Each series gets one point
	// per window, stamped at the window's closing edge. Default
	// Duration/10.
	Window float64
	// Seed drives every random choice of the engine, the arrival
	// processes and the load generator (the overlay keeps its own seed
	// from construction).
	Seed uint64
	// Arrivals are the membership event sources, fired in virtual-time
	// order. Stateful arrivals are reset by Run, so a Scenario value is
	// reusable.
	Arrivals []Arrival
	// Load is the concurrent query workload.
	Load Load
	// MinNodes rejects departures that would shrink the overlay below
	// this population. Default 8, clamped to at least 2: no overlay in
	// the registry can represent fewer than two nodes, so a scenario
	// asking to drain below that is clamped rather than letting the
	// overlay fail mid-run.
	MinNodes int
	// Faults, when non-nil, replaces instantaneous routing with per-hop
	// message flights over a netmodel fault plane built from this
	// config: every hop pays a sampled link latency, may be lost or hit
	// a dead/partitioned/byzantine peer, and Retry governs per-hop
	// timeouts, resends and next-best fallbacks. Each query's typed
	// outcome (delivered / degraded / timed-out / unroutable) feeds the
	// robust report series. nil (the default) keeps the legacy
	// instantaneous path, bit-identical to scenarios recorded before
	// this field existed.
	Faults *netmodel.Config
	// FaultSeed seeds the fault plane and the engine's fault-side draws
	// (backoff jitter, byzantine detour picks). 0 derives it from Seed.
	// Fault streams are created directly from FaultSeed rather than
	// split from the Seed master chain, so the engine/load/arrival
	// stream assignment — the replay format — is identical with and
	// without faults, and fault placement re-rolls independently of
	// churn and load by changing FaultSeed alone.
	FaultSeed uint64
	// Retry is the robust-routing policy queries fly under when Faults
	// is set: the per-candidate resend budget. The zero value means
	// overlaynet.RobustPolicy's default of 2.
	Retry overlaynet.RobustPolicy
	// Store, when non-nil, runs the replicated range store (package
	// store) as the scenario's workload: every load event becomes a
	// storage operation — put, get or ordered range scan — served
	// through the overlay, with R-way replication, key/value handover
	// on every membership event, and a durability oracle auditing that
	// no acknowledged write is lost. Under Faults, each operation first
	// flies to the data as a per-hop message flight. nil (the default)
	// keeps the plain routed-lookup load, bit-identical to scenarios
	// recorded before this field existed; store-side randomness comes
	// from a stream derived Seed^storeSeedSalt, so adding Store
	// re-rolls neither churn nor load.
	Store *StoreScenario
	// RecordTrace captures the full event sequence into Report.Trace —
	// the replay witness used by determinism tests. Off by default
	// because traces grow with every event.
	RecordTrace bool
	// Obs, when non-nil, is the metrics registry the run updates: query
	// counters and hop/latency histograms, flight gauges, event-queue
	// depth at window edges, fault-plane send counters, and the store
	// counter family when Store is set. Purely a side channel — the
	// registry consumes no random stream and influences no event, so a
	// run with Obs set is bit-identical to the same run without it
	// (TestObsDeterminism pins this).
	Obs *obs.Registry
	// Tracer, when non-nil, samples per-query hop traces (1 in
	// TracerConfig.Sample, a modular counter — never a random draw).
	// Same determinism guarantee as Obs.
	Tracer *obs.Tracer
}

// withDefaults resolves zero-valued fields to their documented
// defaults.
func (sc Scenario) withDefaults() Scenario {
	if sc.Duration <= 0 {
		sc.Duration = 100
	}
	if sc.Window <= 0 || sc.Window > sc.Duration {
		sc.Window = sc.Duration / 10
	}
	if sc.MinNodes <= 0 {
		sc.MinNodes = 8
	}
	if sc.MinNodes < 2 {
		sc.MinNodes = 2
	}
	// Scenario values must stay reusable across runs, so the shared
	// Store config is copied before the engine resolves its defaults.
	if sc.Store != nil {
		c := *sc.Store
		sc.Store = &c
	}
	// A partition needs a fault plane to cut; a scenario that schedules
	// one without configuring faults gets an otherwise-perfect plane.
	if sc.Faults == nil {
		for _, a := range sc.Arrivals {
			if _, ok := a.(*PartitionEvent); ok {
				sc.Faults = &netmodel.Config{}
				break
			}
		}
	}
	return sc
}

// Run executes the scenario against ov and returns the recorded report.
// The context cancels the simulation between events; the report built
// so far is returned alongside the context error. Run mutates ov (that
// is the point); build a fresh overlay per run for independent
// trajectories.
func Run(ctx context.Context, ov overlaynet.Dynamic, sc Scenario) (*Report, error) {
	if ov == nil {
		return nil, fmt.Errorf("sim: nil overlay")
	}
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	e := newEngine(ctx, ov, sc)
	e.bootstrap()
	for len(e.queue) > 0 && e.err == nil {
		if err := ctx.Err(); err != nil {
			e.err = err
			break
		}
		ev := e.queue.pop()
		if ev.at > sc.Duration {
			break
		}
		e.now = ev.at
		e.dispatch(ev)
	}
	report := e.rec.report(e)
	return report, e.err
}

// validate rejects scenario values the event loop cannot terminate on.
func (sc Scenario) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"duration", sc.Duration},
		{"window", sc.Window},
		{"load rate", sc.Load.Rate},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sim: scenario %s %v must be finite", f.name, f.v)
		}
	}
	if sc.Faults != nil {
		if err := sc.Faults.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if sc.Store != nil {
		// Validate the resolved config: defaulted fields can push a
		// half-specified op mix past 1.
		if err := sc.Store.withDefaults().validate(); err != nil {
			return err
		}
	}
	return nil
}
