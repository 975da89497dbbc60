// Churn: drive the Section 4.2 construction protocol (the "protocol"
// registry entry) through sustained membership churn. Peers join by
// routing to themselves and sampling long-range links, leave with
// repairs, and — without the oracle — learn the identifier density from
// random walks and refine their routing tables in maintenance rounds.
// The overlay keeps its O(log N) routing through all of it, and every
// message is metered in overlay hops.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"smallworld/dist"
	"smallworld/metrics"
	"smallworld/overlaynet"
	"smallworld/sim"
	"smallworld/xrand"
)

func main() {
	ctx := context.Background()
	f := dist.NewTruncExp(6) // skewed identifier density
	ov, err := overlaynet.Build(ctx, "protocol", overlaynet.Options{
		N:    512,
		Seed: 3,
		Dist: f,
		// Oracle stays false: peers must *learn* f.
	})
	if err != nil {
		log.Fatal(err)
	}
	dyn := ov.(overlaynet.Dynamic)
	msgr := ov.(overlaynet.Messenger)
	mnt := ov.(overlaynet.Maintainer)

	fmt.Printf("built %d peers on %s keys (estimated density mode)\n\n", ov.N(), f.Name())
	report := func(phase string) {
		batch, err := overlaynet.NewQueryRunner(ov).Run(ctx, overlaynet.RandomPairs(ov, 99, 800))
		if err != nil {
			log.Fatal(err)
		}
		total, _ := msgr.Messages()
		fmt.Printf("%-28s size %4d  hops mean %.2f p99 %.0f  (log2 N = %.1f)  msgs %d\n",
			phase, ov.N(), metrics.Mean(batch.Hops), metrics.Percentile(batch.Hops, 0.99),
			math.Log2(float64(ov.N())), total)
	}
	report("skew-oblivious start:")

	// Refine: peers sample the network and adapt their links to the skew.
	for round := 1; round <= 3; round++ {
		if err := mnt.Maintain(ctx); err != nil {
			log.Fatal(err)
		}
		report(fmt.Sprintf("after refinement round %d:", round))
	}

	// Sustained churn: 600 ops, 2/3 joins, drawn from the sim package's
	// churn vocabulary (see examples/churnlab for the full event-driven
	// engine with virtual time and windowed metrics).
	rng := xrand.New(5)
	trace := sim.BernoulliTrace(600, 2.0/3.0, rng)
	joins, leaves := 0, 0
	var joinCost metrics.Summary
	for _, op := range trace {
		switch op {
		case sim.OpJoin:
			_, before := msgr.Messages()
			if err := dyn.Join(ctx); err != nil {
				log.Fatal(err)
			}
			_, after := msgr.Messages()
			joinCost.Add(float64(after - before))
			joins++
		case sim.OpLeave:
			if err := dyn.Leave(ctx, rng.Intn(ov.N())); err != nil {
				log.Fatal(err)
			}
			leaves++
		}
	}
	fmt.Printf("\nchurn: %d joins (mean cost %.0f msgs), %d leaves (with repair)\n",
		joins, joinCost.Mean(), leaves)
	report("after churn:")

	// One more refinement round re-adapts the survivors.
	if err := mnt.Maintain(ctx); err != nil {
		log.Fatal(err)
	}
	report("after post-churn refinement:")
}
