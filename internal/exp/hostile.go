package exp

import (
	"context"

	"smallworld/dist"
	"smallworld/netmodel"
	"smallworld/overlaynet"
	"smallworld/sim"
)

// E22HostileNetwork measures routing under an adversarial message
// plane: the Section 4.2 protocol overlay serves a live query load
// while every hop crosses a netmodel fault plane — Bernoulli loss,
// crashed nodes, bounded retries with backoff — swept over loss rate ×
// dead fraction × retry budget. A second block runs the partition-heal
// preset and reports the per-window success trajectory across the cut
// and the healing, the recovery-within-one-window acceptance bar.
//
// Every row is a full discrete-event run; all randomness flows from
// (seed, FaultSeed), so the table is bit-identically reproducible.
func E22HostileNetwork(scale Scale, seed uint64) Table {
	t := Table{
		ID:    "E22",
		Title: "Hostile network — loss × dead fraction × retry budget, and partition healing",
		Columns: []string{"N", "loss%", "dead%", "retries", "queries",
			"deliv%", "degr%", "tmo%", "unr%", "latP95", "ret/q"},
	}
	n := 256
	if scale == Full {
		n = 1024
	}
	ctx := context.Background()
	d := dist.NewPower(0.7)

	build := func(s uint64) (overlaynet.Dynamic, error) {
		ov, err := overlaynet.Build(ctx, "protocol",
			overlaynet.Options{N: n, Seed: s, Dist: d, Oracle: true})
		if err != nil {
			return nil, err
		}
		return ov.(overlaynet.Dynamic), nil
	}

	for _, loss := range []float64{0.02, 0.05, 0.10} {
		for _, dead := range []float64{0, 0.10} {
			for _, retries := range []int{-1, 2} {
				ov, err := build(seed)
				if err != nil {
					t.AddNote("build failed: %v", err)
					continue
				}
				sc := sim.Scenario{
					Name:     "e22",
					Duration: 50,
					Window:   10,
					Seed:     seed,
					Arrivals: []sim.Arrival{
						sim.PoissonChurn{JoinRate: 0.01 * float64(n) / 10, LeaveRate: 0.01 * float64(n) / 10},
					},
					Load:   sim.Load{Rate: float64(n) / 10, Target: sim.DataTargets(d)},
					Faults: &netmodel.Config{Loss: loss, DeadFrac: dead},
					Retry:  overlaynet.RobustPolicy{Retries: retries},
				}
				rep, err := sim.Run(ctx, ov, instrument(sc))
				if err != nil {
					t.AddNote("loss %.0f%% dead %.0f%% retries %d: %v",
						100*loss, 100*dead, retries, err)
					continue
				}
				tot := rep.Totals
				q := float64(tot.Queries)
				if q == 0 {
					continue
				}
				shownRetries := retries
				if retries < 0 {
					shownRetries = 0
				} else if retries == 0 {
					shownRetries = 2 // resolved default
				}
				t.AddRow(n, 100*loss, 100*dead, shownRetries, tot.Queries,
					100*float64(tot.Arrived)/q, 100*float64(tot.Degraded)/q,
					100*float64(tot.Timeouts)/q, 100*float64(tot.Unroutable)/q,
					rep.LatencyQuantile(0.95), float64(tot.Retries)/q)
			}
		}
	}

	// Partition-heal trajectory: cut at t=40, healed at t=60; the
	// acceptance bar is success back at 100% within one window of the
	// heal (the t=70 window may carry in-flight residue of the cut).
	ov, err := build(seed + 7)
	if err != nil {
		t.AddNote("partition-heal build failed: %v", err)
		return t
	}
	sc, err := sim.Preset("partition-heal", n)
	if err != nil {
		t.AddNote("partition-heal preset: %v", err)
		return t
	}
	sc.Seed = seed
	rep, err := sim.Run(ctx, ov, instrument(sc))
	if err != nil {
		t.AddNote("partition-heal run: %v", err)
		return t
	}
	if fail := rep.Get(sim.SeriesFailRate); fail != nil {
		for _, p := range fail.Points {
			t.AddNote("partition-heal t=%g: success %.1f%%", p.T, 100*(1-p.V))
		}
	}
	t.AddNote("cut [0.25,0.75) vs rest at t=40, healed t=60; success must return to 100%% within one window")
	t.AddNote("retries column shows the resolved per-candidate resend budget; deliv%% includes degraded deliveries")
	t.AddNote("overlay: the \"protocol\" entry with oracle f, i.e. the incremental writer that serving runs")
	return t
}
