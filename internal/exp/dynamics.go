package exp

import (
	"context"

	"smallworld/dist"
	"smallworld/metrics"
	"smallworld/overlaynet"
	"smallworld/sim"
)

// E19ChurnDynamics validates the paper's dynamic claim with the
// discrete-event simulator: the skewed small-world overlay sustains
// O(log N) mean hops under sustained Poisson churn (≥10% of the
// population per window) while a live query load routes concurrently.
// Three drivers are compared — the Section 4.2 protocol with oracle
// density knowledge, the realistic estimated-density variant, and the
// idealised full-rebuild baseline over the offline Model 2 constructor
// — across churn intensities.
func E19ChurnDynamics(scale Scale, seed uint64) Table {
	t := Table{
		ID:    "E19",
		Title: "Routing under churn — Poisson join/leave with concurrent query load",
		Columns: []string{"overlay", "churn%/win", "meanHops", "p95",
			"fail%", "meanN", "hops/log2N", "maintMsgs/op"},
	}
	n := 256
	if scale == Full {
		n = 1024
	}
	ctx := context.Background()
	d := dist.NewPower(0.7)

	type driver struct {
		name   string
		churns []float64
		build  func() (overlaynet.Dynamic, error)
	}
	drivers := []driver{
		{"protocol (oracle)", []float64{0, 0.05, 0.10, 0.20}, func() (overlaynet.Dynamic, error) {
			ov, err := overlaynet.Build(ctx, "protocol",
				overlaynet.Options{N: n, Seed: seed, Dist: d, Oracle: true})
			if err != nil {
				return nil, err
			}
			return ov.(overlaynet.Dynamic), nil
		}},
		{"protocol (estimated)", []float64{0.10}, func() (overlaynet.Dynamic, error) {
			ov, err := overlaynet.Build(ctx, "protocol",
				overlaynet.Options{N: n, Seed: seed + 1, Dist: d})
			if err != nil {
				return nil, err
			}
			return ov.(overlaynet.Dynamic), nil
		}},
		{"rebuild:smallworld-skewed", []float64{0.10}, func() (overlaynet.Dynamic, error) {
			return overlaynet.NewRebuild(ctx, "smallworld-skewed",
				overlaynet.Options{N: n, Seed: seed + 2, Dist: d})
		}},
	}

	for _, dr := range drivers {
		for _, churn := range dr.churns {
			ov, err := dr.build()
			if err != nil {
				t.AddNote("%s build failed: %v", dr.name, err)
				continue
			}
			sc := sim.Scenario{
				Name:     "e19",
				Duration: 100,
				Window:   10,
				Seed:     seed + uint64(100*churn),
				Load:     sim.Load{Rate: float64(n) / 10, Target: sim.DataTargets(d)},
			}
			if churn > 0 {
				rate := churn * float64(n) / sc.Window
				sc.Arrivals = []sim.Arrival{
					sim.PoissonChurn{JoinRate: rate / 2, LeaveRate: rate / 2},
				}
			}
			rep, err := sim.Run(ctx, ov, instrument(sc))
			if err != nil {
				t.AddNote("%s at churn %.0f%%: %v", dr.name, 100*churn, err)
				continue
			}
			meanN := metrics.Mean(rep.Get(sim.SeriesLiveNodes).Values())
			perOp := "-"
			if ops := rep.Totals.Joins + rep.Totals.Leaves; ops > 0 && rep.Totals.MaintMessages > 0 {
				perOp = fmtF(float64(rep.Totals.MaintMessages) / float64(ops))
			}
			t.AddRow(dr.name, 100*churn, rep.Totals.MeanHops(), rep.HopQuantile(0.95),
				100*rep.Totals.FailRate(), meanN, rep.Totals.MeanHops()/log2f(meanN), perOp)
		}
	}
	t.AddNote("queries run concurrently with churn in virtual time; hops/log2N must stay O(1) as churn rises")
	t.AddNote("rebuild baseline = offline Model 2 reconstruction per event (ideal tables, unpayable cost)")
	t.AddNote("maintMsgs/op = a join's locate and link routes, or one re-draw route per link a leave broke")
	return t
}
