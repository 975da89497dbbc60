package smallworld

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"smallworld/dist"
	"smallworld/keyspace"
)

// Measure selects the quantity whose inverse power weighs long-range link
// selection.
type Measure int

const (
	// Geometric weighs links by the key-space distance d(u,v) of Eq. (1).
	// With Exponent 1 and logarithmic degree this is the paper's Model 1.
	Geometric Measure = iota
	// Mass weighs links by the probability mass |∫_u^v f| of Eq. (7).
	// With Exponent 1 and logarithmic degree this is the paper's Model 2.
	Mass
)

// String returns the measure name.
func (m Measure) String() string {
	switch m {
	case Geometric:
		return "geometric"
	case Mass:
		return "mass"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// SamplerKind selects how long-range targets are drawn.
type SamplerKind int

const (
	// Exact draws from the literal discrete distribution of the model:
	// weights 1/measure(u,v)^r over every eligible peer v. O(N) per node.
	Exact SamplerKind = iota
	// Protocol mimics the Section 4.2 join protocol: draw a measure-space
	// offset with density proportional to m^-r, map it to a key, and link
	// to the closest peer. O(log N) per link.
	Protocol
)

// String returns the sampler name.
func (s SamplerKind) String() string {
	switch s {
	case Exact:
		return "exact"
	case Protocol:
		return "protocol"
	default:
		return fmt.Sprintf("SamplerKind(%d)", int(s))
	}
}

// DegreeFunc maps the network size to the number of long-range links per
// node.
type DegreeFunc func(n int) int

// Log2Degree returns the paper's logarithmic outdegree: ceil(log2 n).
func Log2Degree() DegreeFunc {
	return func(n int) int {
		if n <= 1 {
			return 0
		}
		return int(math.Ceil(math.Log2(float64(n))))
	}
}

// ConstDegree returns a constant outdegree k (Kleinberg's original
// setting, and Symphony's), independent of n.
func ConstDegree(k int) DegreeFunc {
	return func(int) int { return k }
}

// Config describes a small-world overlay to build.
type Config struct {
	// N is the number of peers. Required, >= 2.
	N int
	// Topology selects line or ring geometry. The default (zero value) is
	// keyspace.Line, the half-open interval of the paper's theorems; pass
	// keyspace.Ring explicitly for the wrap-around geometry every deployed
	// overlay uses. Any other value is rejected by Build.
	Topology keyspace.Topology
	// Dist is the identifier density f. Defaults to dist.Uniform{}.
	// It is used both to place peers (unless Keys is given) and, for the
	// Mass measure, to compute link masses.
	Dist dist.Distribution
	// Keys optionally fixes the peer identifiers instead of sampling them
	// from Dist. They are sorted during Build; duplicates are rejected.
	Keys []keyspace.Key
	// Measure selects geometric-distance or probability-mass weighting.
	Measure Measure
	// Exponent is the power r in the selection weight 1/measure^r.
	// Defaults to 1 (harmonic), the provably routing-efficient choice.
	Exponent float64
	// Degree gives the long-range outdegree. Defaults to Log2Degree().
	Degree DegreeFunc
	// MinMeasure is the eligibility threshold: a peer may only be chosen
	// as a long-range contact when measure(u,v) >= MinMeasure (the
	// paper's "not too close" restriction). Defaults to 1/N.
	MinMeasure float64
	// Sampler selects Exact or Protocol link sampling.
	Sampler SamplerKind
	// Seed drives all randomness; equal configs with equal seeds build
	// identical networks.
	Seed uint64
	// Workers bounds construction parallelism. Defaults to GOMAXPROCS.
	Workers int
}

// UniformConfig returns the paper's Model 1: uniform ids, harmonic
// geometric weighting, log2 N long-range links.
func UniformConfig(n int, seed uint64) Config {
	return Config{N: n, Dist: dist.Uniform{}, Measure: Geometric, Seed: seed}
}

// SkewedConfig returns the paper's Model 2 for the given identifier
// density: harmonic mass weighting, log2 N long-range links.
func SkewedConfig(n int, d dist.Distribution, seed uint64) Config {
	return Config{N: n, Dist: d, Measure: Mass, Seed: seed}
}

// KleinbergConfig returns the classic constant-outdegree construction
// with selection weight 1/d^r, for the background "r must equal the
// dimension" reproduction.
func KleinbergConfig(n, degree int, r float64, seed uint64) Config {
	return Config{
		N: n, Dist: dist.Uniform{}, Measure: Geometric,
		Exponent: r, Degree: ConstDegree(degree), Seed: seed,
	}
}

// withDefaults validates cfg and fills defaults.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.N < 2 {
		return cfg, fmt.Errorf("smallworld: N = %d, need at least 2 peers", cfg.N)
	}
	if cfg.Topology != keyspace.Line && cfg.Topology != keyspace.Ring {
		return cfg, fmt.Errorf("smallworld: unknown topology %v", cfg.Topology)
	}
	if cfg.Dist == nil {
		cfg.Dist = dist.Uniform{}
	}
	if cfg.Keys != nil && len(cfg.Keys) != cfg.N {
		return cfg, fmt.Errorf("smallworld: %d fixed keys for N = %d", len(cfg.Keys), cfg.N)
	}
	for _, k := range cfg.Keys {
		if !k.Valid() {
			return cfg, fmt.Errorf("smallworld: fixed key %v outside [0,1)", k)
		}
	}
	if math.IsNaN(cfg.Exponent) || math.IsInf(cfg.Exponent, 0) {
		return cfg, fmt.Errorf("smallworld: exponent %v is not finite", cfg.Exponent)
	}
	if cfg.Exponent == 0 {
		cfg.Exponent = 1
	}
	if cfg.Exponent < 0 {
		return cfg, errors.New("smallworld: negative exponent")
	}
	if cfg.Degree == nil {
		cfg.Degree = Log2Degree()
	}
	if math.IsNaN(cfg.MinMeasure) || math.IsInf(cfg.MinMeasure, 0) {
		return cfg, fmt.Errorf("smallworld: MinMeasure %v is not finite", cfg.MinMeasure)
	}
	if cfg.MinMeasure == 0 {
		cfg.MinMeasure = 1 / float64(cfg.N)
		if max := cfg.Topology.MaxDistance(); cfg.MinMeasure >= max {
			// N = 2 on the ring: the derived floor 1/N reaches the space
			// diameter. Clamp below it so the minimum legal population
			// builds (it simply places few or no long links) instead of
			// rejecting its own default — churn drivers must be able to
			// drain to two nodes and recover.
			cfg.MinMeasure = max / 2
		}
	}
	if cfg.MinMeasure < 0 || cfg.MinMeasure >= cfg.Topology.MaxDistance() {
		return cfg, fmt.Errorf("smallworld: MinMeasure %v outside (0, %v)", cfg.MinMeasure, cfg.Topology.MaxDistance())
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg, nil
}
