// Churnlab: the discrete-event dynamics engine end to end. A live
// Section 4.2 protocol overlay (the "protocol" entry, peers estimating
// f themselves) is driven through three scenarios —
// steady Poisson churn, a flash crowd, and a correlated mass failure
// with maintenance-assisted recovery — while a query load routes
// concurrently in virtual time. Every run is deterministic: rerun this
// program and every table reproduces bit-identically — including the
// final run, which executes under the observability plane (package
// obs) and dumps its worst-latency query as a Chrome trace.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"smallworld/dist"
	"smallworld/obs"
	"smallworld/overlaynet"
	"smallworld/sim"
)

func main() {
	ctx := context.Background()
	f := dist.NewPower(0.7) // skewed identifier density

	// Fresh overlay per scenario: sim.Run mutates its overlay.
	build := func(seed uint64) overlaynet.Dynamic {
		ov, err := overlaynet.Build(ctx, "protocol", overlaynet.Options{
			N:    256,
			Seed: seed,
			Dist: f,
		})
		if err != nil {
			log.Fatal(err)
		}
		return ov.(overlaynet.Dynamic)
	}

	for _, name := range []string{"steady", "flashcrowd", "massfail"} {
		sc, err := sim.Preset(name, 256)
		if err != nil {
			log.Fatal(err)
		}
		sc.Seed = 7
		sc.Load.Target = sim.DataTargets(f) // hot keys queried more

		report, err := sim.Run(ctx, build(1), sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(report)
		fmt.Println()
	}

	// Custom scenarios compose arrival processes directly. Here: peers
	// with finite session lifetimes on top of light background churn,
	// with periodic maintenance refining the survivors' link tables.
	custom := sim.Scenario{
		Name:     "custom-sessions",
		Duration: 100,
		Window:   10,
		Seed:     11,
		Arrivals: []sim.Arrival{
			sim.PoissonChurn{JoinRate: 0.3, LeaveRate: 0.3},
			sim.Sessions{Rate: 1, Lifetime: dist.NewTruncExp(4), Scale: 90},
			sim.Maintenance{Every: 25},
		},
		Load: sim.Load{Rate: 25, Target: sim.DataTargets(f)},
	}
	report, err := sim.Run(ctx, build(2), custom)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)

	// Machine-readable export: the same windowed series as CSV.
	fmt.Println("\nCSV export of the custom run:")
	if err := report.WriteCSV(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Observability: rerun the hostile "lossy" preset with a metrics
	// registry and a per-query tracer installed. Instrumentation never
	// touches a seeded stream, so the report is bit-identical to an
	// uninstrumented run; afterwards the worst-latency sampled query is
	// dumped in Chrome trace-event format (chrome://tracing,
	// ui.perfetto.dev) — every hop, timeout and retry it paid.
	lossy, err := sim.Preset("lossy", 256)
	if err != nil {
		log.Fatal(err)
	}
	lossy.Seed = 7
	lossy.Load.Target = sim.DataTargets(f)
	lossy.Obs = obs.NewRegistry()
	lossy.Tracer = obs.NewTracer(obs.TracerConfig{Sample: 16})
	if _, err := sim.Run(ctx, build(3), lossy); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlossy run under obs: %d queries, %d retries, p95 virtual latency %.2f\n",
		lossy.Obs.RouteQueries.Value(), lossy.Obs.RouteRetries.Value(),
		lossy.Obs.VirtLatency.Quantile(0.95))
	worst, ok := lossy.Tracer.Worst()
	if !ok {
		log.Fatal("no sampled trace finished")
	}
	fmt.Printf("worst sampled query: op=%s outcome=%s latency=%.2f spans=%d\n",
		worst.Op, worst.Outcome, worst.Latency(), len(worst.Spans))
	path := filepath.Join(os.TempDir(), "churnlab-worst-trace.json")
	out, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.WriteChromeTrace(out, 0, worst); err != nil {
		log.Fatal(err)
	}
	if err := out.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", path)
}
