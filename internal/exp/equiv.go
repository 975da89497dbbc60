package exp

import (
	"smallworld"
	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/metrics"
	"smallworld/xrand"
)

// E9NormalizationEquivalence executes the construction in Theorem 2's
// proof (the paper's Figures 1 and 2): graph G built directly in the
// skewed space R with the mass criterion versus graph G' built in the
// normalised space R' with the geometric criterion, from the same
// underlying randomness. With the exact sampler the adjacency must be
// identical; with the protocol sampler agreement is high but not exact
// (nearest-peer resolution can flip between flanking peers across the
// warp); in both cases routing cost must match.
func E9NormalizationEquivalence(scale Scale, seed uint64) Table {
	t := Table{
		ID:      "E9",
		Title:   "Theorem 2 construction — G in R vs G' in R' (Figures 1-2)",
		Columns: []string{"distribution", "sampler", "linkAgreement%", "hopsG", "hopsG'"},
	}
	n := 1024
	if scale == Quick {
		n = 256
	}
	q := queriesFor(scale)
	for _, d := range []dist.Distribution{dist.NewPower(0.7), dist.NewTruncExp(6)} {
		for _, sampler := range []smallworld.SamplerKind{smallworld.Exact, smallworld.Protocol} {
			g, gPrime, err := buildEquivalencePair(d, n, seed, sampler)
			if err != nil {
				t.AddNote("build failed: %v", err)
				continue
			}
			var total, agree int
			for u := 0; u < g.N(); u++ {
				for _, v := range g.LongRange(u) {
					total++
					if gPrime.CSR().HasEdge(u, int(v)) {
						agree++
					}
				}
			}
			agreement := 0.0
			if total > 0 {
				agreement = 100 * float64(agree) / float64(total)
			}
			hG := metrics.Mean(routeHops(g, seed+60, q))
			hGP := metrics.Mean(routeHops(gPrime, seed+60, q))
			t.AddRow(d.Name(), sampler.String(), agreement, hG, hGP)
		}
	}
	t.AddNote("exact sampler: 100%% agreement is the theorem's graph-equivalence made literal")
	return t
}

// buildEquivalencePair constructs G (skewed space, mass measure) and G'
// (normalised space, geometric measure) from shared positions and seed.
func buildEquivalencePair(d dist.Distribution, n int, seed uint64, sampler smallworld.SamplerKind) (*smallworld.Network, *smallworld.Network, error) {
	rng := xrand.New(seed)
	normKeys := make([]keyspace.Key, n)
	skewedKeys := make([]keyspace.Key, n)
	for i := range normKeys {
		p := rng.Float64()
		normKeys[i] = keyspace.Clamp(p)
		skewedKeys[i] = keyspace.Clamp(d.Quantile(p))
	}
	g, err := smallworld.Build(smallworld.Config{
		N: n, Dist: d, Keys: skewedKeys, Measure: smallworld.Mass,
		Sampler: sampler, Seed: seed + 1, Topology: keyspace.Ring,
	})
	if err != nil {
		return nil, nil, err
	}
	gPrime, err := smallworld.Build(smallworld.Config{
		N: n, Dist: dist.Uniform{}, Keys: normKeys, Measure: smallworld.Geometric,
		Sampler: sampler, Seed: seed + 1, Topology: keyspace.Ring,
	})
	if err != nil {
		return nil, nil, err
	}
	return g, gPrime, nil
}
