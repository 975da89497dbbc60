package exp

import (
	"context"

	"smallworld"
	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/metrics"
	"smallworld/overlaynet"
)

// E10JoinProtocol validates the Section 4.2 construction protocol in its
// oracle form: peers join a live overlay by routing to themselves and
// querying for sampled link targets. The join cost must stay polylog and
// the organically grown overlay must route as well as one built offline
// by the oracle graph constructor.
func E10JoinProtocol(scale Scale, seed uint64) Table {
	t := Table{
		ID:      "E10",
		Title:   "Join protocol — message cost and routing quality of organic growth",
		Columns: []string{"phase", "size", "meanJoinMsgs", "log2²N", "hops(grown)", "hops(offline)"},
	}
	start, end := 256, 1024
	if scale == Quick {
		start, end = 128, 256
	}
	d := dist.NewPower(0.7)
	ctx := context.Background()
	ov, err := overlaynet.Build(ctx, "protocol",
		overlaynet.Options{N: start, Seed: seed, Dist: d, Oracle: true})
	if err != nil {
		t.AddNote("build failed: %v", err)
		return t
	}
	dyn, msgr := ov.(overlaynet.Dynamic), ov.(overlaynet.Messenger)
	q := queriesFor(scale)
	for size := start; size < end; size *= 2 {
		var joinCost metrics.Summary
		for ov.N() < size*2 {
			_, before := msgr.Messages()
			if err := dyn.Join(ctx); err != nil {
				t.AddNote("join failed: %v", err)
				return t
			}
			_, after := msgr.Messages()
			joinCost.Add(float64(after - before))
		}
		grown := metrics.Mean(overlayHops(ov, seed+70, q))
		cfg := smallworld.SkewedConfig(ov.N(), d, seed+71)
		cfg.Sampler = smallworld.Protocol
		cfg.Topology = keyspace.Ring
		offlineHops := 0.0
		if offline, err := smallworld.Build(cfg); err == nil {
			offlineHops = metrics.Mean(routeHops(offline, seed+72, q))
		}
		t.AddRow(
			"grow", ov.N(), joinCost.Mean(), log2(ov.N())*log2(ov.N()),
			grown, offlineHops)
	}
	t.AddNote("join cost ≈ locate O(logN) + logN link queries × O(logN) each = O(log²N)")
	t.AddNote("grown on the \"protocol\" entry (oracle f): hops metered on the incremental writer's own rows")
	return t
}

// E11EstimatedDensity validates the paper's iterative-refinement
// proposal for the realistic case where peers do not know f: starting
// from a skew-oblivious overlay whose links follow key distance, peers
// estimate f from random walk samples and re-draw their links by
// estimated mass each round; routing converges toward the oracle
// overlay's cost.
func E11EstimatedDensity(scale Scale, seed uint64) Table {
	t := Table{
		ID:      "E11",
		Title:   "Iterative refinement with estimated f — hops vs refinement round",
		Columns: []string{"round", "meanHops", "p99", "vsOracle"},
	}
	n := 512
	if scale == Quick {
		n = 256
	}
	d := dist.NewTruncExp(6)
	q := queriesFor(scale)
	ctx := context.Background()

	oracle, err := overlaynet.Build(ctx, "protocol",
		overlaynet.Options{N: n, Seed: seed, Dist: d, Oracle: true})
	if err != nil {
		t.AddNote("oracle build failed: %v", err)
		return t
	}
	oracleHops := metrics.Mean(overlayHops(oracle, seed+80, q))

	est, err := overlaynet.Build(ctx, "protocol", overlaynet.Options{N: n, Seed: seed, Dist: d})
	if err != nil {
		t.AddNote("build failed: %v", err)
		return t
	}
	rounds := 5
	if scale == Quick {
		rounds = 3
	}
	// A reported round is several maintenance rounds, so each peer
	// gathers more walk samples between rows of the table.
	const maintainsPerRound = 3
	for round := 0; round <= rounds; round++ {
		for i := 0; round > 0 && i < maintainsPerRound; i++ {
			if err := est.(overlaynet.Maintainer).Maintain(ctx); err != nil {
				t.AddNote("refinement failed: %v", err)
				return t
			}
		}
		hops := overlayHops(est, seed+81, q)
		mean := metrics.Mean(hops)
		t.AddRow(round, mean, metrics.Percentile(hops, 0.99), mean/oracleHops)
	}
	t.AddNote("oracle reference: %.2f hops; vsOracle should fall toward ≈ 1 as rounds proceed", oracleHops)
	t.AddNote("a round is %d Maintain calls; in each, every peer samples random-walk endpoints, re-fits f and N, and re-draws its links", maintainsPerRound)
	return t
}
