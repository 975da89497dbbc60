package smallworld

import (
	"testing"
	"testing/quick"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// These tests execute the construction at the heart of Theorem 2's proof
// (Figures 1-2 of the paper): building graph G directly in the skewed
// space R with the mass criterion must be equivalent to building G' in
// the normalised space R' with the geometric criterion, because
// |∫_u^v f| = |F(v) - F(u)| = d'(u', v').

// buildPair constructs G (skewed space, mass measure) and G' (normalised
// space, geometric measure) from the same underlying uniform positions
// and the same seed.
func buildPair(t *testing.T, d dist.Distribution, n int, seed uint64, sampler SamplerKind) (*Network, *Network) {
	t.Helper()
	rng := xrand.New(seed)
	normKeys := make([]keyspace.Key, n)   // positions in R'
	skewedKeys := make([]keyspace.Key, n) // their images in R
	for i := range normKeys {
		p := rng.Float64()
		normKeys[i] = keyspace.Clamp(p)
		skewedKeys[i] = keyspace.Clamp(d.Quantile(p))
	}
	gCfg := Config{
		N: n, Dist: d, Keys: skewedKeys, Measure: Mass,
		Sampler: sampler, Seed: seed + 1, Topology: keyspace.Ring,
	}
	gPrimeCfg := Config{
		N: n, Dist: dist.Uniform{}, Keys: normKeys, Measure: Geometric,
		Sampler: sampler, Seed: seed + 1, Topology: keyspace.Ring,
	}
	return mustBuild(t, gCfg), mustBuild(t, gPrimeCfg)
}

func TestNormalizationEquivalenceExact(t *testing.T) {
	// With the exact sampler the two constructions see identical discrete
	// weight vectors, so with a shared seed the graphs must be identical.
	for _, d := range []dist.Distribution{
		dist.NewPower(0.7),
		dist.NewTruncExp(6),
		dist.NewTruncNormal(0.3, 0.15),
	} {
		g, gPrime := buildPair(t, d, 128, 41, Exact)
		if g.CSR().M() != gPrime.CSR().M() {
			t.Fatalf("%s: edge counts differ: %d vs %d", d.Name(), g.CSR().M(), gPrime.CSR().M())
		}
		for u := 0; u < g.N(); u++ {
			for _, v := range g.CSR().Out(u) {
				if !gPrime.CSR().HasEdge(u, int(v)) {
					t.Fatalf("%s: edge %d->%d in G but not in G'", d.Name(), u, v)
				}
			}
		}
	}
}

func TestNormalizationEquivalenceProtocol(t *testing.T) {
	// The protocol sampler resolves sampled values to the nearest peer,
	// and "nearest" can flip between flanking peers across the warp of
	// the space; once one draw flips, the node's remaining draws consume
	// different randomness and diverge freely. So we assert strong but
	// not perfect agreement, plus routing-cost parity (the property that
	// actually matters for Theorem 2).
	d := dist.NewPower(0.7)
	g, gPrime := buildPair(t, d, 256, 43, Protocol)
	var total, agree int
	for u := 0; u < g.N(); u++ {
		for _, v := range g.LongRange(u) {
			total++
			if gPrime.CSR().HasEdge(u, int(v)) {
				agree++
			}
		}
	}
	if total == 0 {
		t.Fatal("no long-range links built")
	}
	if frac := float64(agree) / float64(total); frac < 0.75 {
		t.Errorf("only %.1f%% of protocol-sampled links agree across spaces", frac*100)
	}
	sG := routeSample(g, xrand.New(44), 1000)
	sGP := routeSample(gPrime, xrand.New(44), 1000)
	if ratio := sG.Mean() / sGP.Mean(); ratio > 1.2 || ratio < 0.8 {
		t.Errorf("protocol-built routing cost differs across spaces: %.2f vs %.2f", sG.Mean(), sGP.Mean())
	}
}

func TestEquivalentRoutingCost(t *testing.T) {
	// Corollary of the equivalence: greedy routing cost distributions in
	// G and G' match closely.
	d := dist.NewTruncExp(6)
	g, gPrime := buildPair(t, d, 512, 47, Exact)
	r1, r2 := xrand.New(48), xrand.New(48)
	sG := routeSample(g, r1, 1000)
	sGP := routeSample(gPrime, r2, 1000)
	if ratio := sG.Mean() / sGP.Mean(); ratio > 1.15 || ratio < 0.85 {
		t.Errorf("routing cost differs across spaces: %.2f vs %.2f", sG.Mean(), sGP.Mean())
	}
}

// Property over random densities: mass eligibility in R equals geometric
// eligibility in R' for every pair, i.e. the eligible link sets coincide.
func TestEligibilityInvariantQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		alpha := 0.9 * rng.Float64()
		d := dist.NewPower(alpha)
		n := 16 + rng.Intn(48)
		g, gPrime := buildPair(t, d, n, seed, Exact)
		minM := 1 / float64(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				el1 := g.measureBetween(u, v) >= minM
				el2 := gPrime.measureBetween(u, v) >= minM
				if el1 != el2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
