package exp

import (
	"context"
	"runtime"
	"time"

	"smallworld/dist"
	"smallworld/overlaynet"
	"smallworld/sim"

	"smallworld/keyspace"
)

// E21ServeUnderChurn measures the serving subsystem end to end: the
// closed-loop wall-clock query load (sim.Serve) routing lock-free
// against Publisher snapshots while Poisson churn applies on the writer
// side, swept over worker count and churn rate. qps is the measured
// serving capacity of this machine at that concurrency; hop columns
// validate that routing quality is unimpaired by serving from epochs up
// to 64 events stale. Like E20's build times, qps and latency are
// wall-clock and machine-dependent; hop quantiles are seed-driven but
// depend on the live interleaving of churn and queries, so they are
// reproducible in distribution, not bit for bit.
func E21ServeUnderChurn(scale Scale, seed uint64) Table {
	t := Table{
		ID:    "E21",
		Title: "Serving under churn — closed-loop lock-free snapshot queries vs workers × churn",
		Columns: []string{"N", "workers", "churn/s", "events", "qps", "meanHops", "p99Hops",
			"latP99µs", "epochs", "nodes"},
	}
	type sweep struct {
		n       int
		workers []int
	}
	sweeps := []sweep{{16384, []int{1, 2, 4}}}
	duration := 300 * time.Millisecond
	if scale == Full {
		// The 2^22 row gets a reduced sweep: one concurrency point is
		// enough to place the frontier (each full-scale build costs
		// minutes, and the worker-scaling shape is already pinned by the
		// smaller sizes).
		sweeps = []sweep{
			{65536, []int{1, 2, 4, 8}},
			{1048576, []int{1, 2, 4, 8}},
			{4194304, []int{4}},
		}
		duration = time.Second
	}
	ctx := context.Background()
	d := dist.NewPower(0.7)
	for i, sw := range sweeps {
		n := sw.n
		for _, workers := range sw.workers {
			for _, churnFrac := range []float64{0, 0.02} {
				dyn, err := overlaynet.NewIncremental(ctx, "smallworld-skewed", overlaynet.Options{
					N: n, Seed: seed + uint64(i), Dist: d, Topology: keyspace.Ring,
				})
				if err != nil {
					t.AddNote("build failed for N=%d: %v", n, err)
					continue
				}
				// A 16-event boundary keeps epochs turning over even when
				// a single-core scheduler throttles the writer.
				pub, err := overlaynet.NewPublisher(dyn, overlaynet.PublishEvery(16))
				if err != nil {
					t.AddNote("publisher failed for N=%d: %v", n, err)
					continue
				}
				rep, err := sim.Serve(ctx, pub, instrumentServe(sim.ServeConfig{
					Name: "e21", Workers: workers,
					Duration: duration, Window: duration / 3,
					ChurnRate: churnFrac * float64(n),
					Seed:      seed + 31*uint64(workers),
					Target:    sim.DataTargets(d),
				}))
				if err != nil {
					t.AddNote("serve failed for N=%d workers=%d: %v", n, workers, err)
					continue
				}
				t.AddRow(n, workers, churnFrac*float64(n),
					rep.Totals.Joins+rep.Totals.Leaves, fmtF(rep.QPS), rep.HopsMean,
					rep.HopsP99, rep.LatP99Us, rep.Totals.Epochs, rep.Totals.FinalNodes)
			}
		}
	}
	t.AddNote("qps/latency are wall-clock (machine-dependent); recorded at GOMAXPROCS=%d — worker scaling needs GOMAXPROCS >= workers", runtime.GOMAXPROCS(0))
	t.AddNote("churn/s is the configured Poisson rate, events the achieved count; churn is scheduled open-loop, so a writer the readers delay applies its overdue events on its next wake")
	t.AddNote("readers pin one snapshot per 512 queries; epochs = snapshots published (boundary: 16 events)")
	return t
}
