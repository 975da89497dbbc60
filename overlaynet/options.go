package overlaynet

import (
	"fmt"
	"math"

	"smallworld/dist"
	"smallworld/keyspace"
)

// Options parameterises Build. One struct covers every registered
// topology; fields a topology does not use are ignored by its builder,
// and every zero value means "the topology's documented default", so
// Options{N: n, Seed: s} builds a sensible instance of anything.
type Options struct {
	// N is the number of nodes. Required, >= 2 for every topology.
	N int
	// Seed drives all randomness: the same (name, Options) pair always
	// builds an identical overlay.
	Seed uint64
	// Dist is the identifier density f. Nil means uniform. Used by the
	// small-world family, P-Grid, Symphony/Mercury, CAN and the
	// "protocol" entry.
	Dist dist.Distribution
	// Topology selects the key-space geometry for the small-world
	// family: the zero value is keyspace.Line (the theorems' interval
	// setting, matching smallworld.Config); pass keyspace.Ring for the
	// wrap-around geometry. Ring-native overlays, "protocol" among
	// them, ignore it.
	Topology keyspace.Topology
	// Degree is the number of long-range links per node. 0 means the
	// topology default: ceil(log2 N) for the small-world models and
	// Symphony/Mercury, 4 for Kleinberg, lattice degree 8 for
	// Watts–Strogatz.
	Degree int
	// Exponent is the link-selection exponent r of the small-world
	// family. 0 means 1, the harmonic (routing-efficient) choice.
	Exponent float64
	// Sampler selects the small-world link sampler: "protocol" (default)
	// or "exact".
	Sampler string
	// Oracle is read by the "protocol" entry only. True gives its peers
	// exact knowledge of f and N (the paper's "straightforward" case):
	// links are drawn by mass under f. False means each peer starts
	// from a uniform estimate and estimates both from random walks in
	// refinement rounds (Maintainer).
	Oracle bool
}

// validate rejects option values no builder can accept.
func (o Options) validate() error {
	if o.N < 2 {
		return fmt.Errorf("overlaynet: N = %d, need at least 2 nodes", o.N)
	}
	if o.Degree < 0 {
		return fmt.Errorf("overlaynet: negative degree %d", o.Degree)
	}
	if math.IsNaN(o.Exponent) || math.IsInf(o.Exponent, 0) || o.Exponent < 0 {
		return fmt.Errorf("overlaynet: exponent %v must be finite and non-negative", o.Exponent)
	}
	return nil
}

// dist returns the configured identifier density, defaulting to uniform.
func (o Options) dist() dist.Distribution {
	if o.Dist == nil {
		return dist.Uniform{}
	}
	return o.Dist
}
