package sim

import (
	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// Load is the query workload running concurrently (in virtual time)
// with membership churn: routed lookups arrive as a Poisson process of
// the given Rate, each from a uniformly random live source to a target
// drawn by the Target function.
type Load struct {
	// Rate is queries per unit of virtual time. 0 disables the load.
	Rate float64
	// Target draws one query target. Nil means UniformTargets.
	Target TargetFunc
}

// target resolves the configured target function.
func (l Load) target(r *xrand.Stream) keyspace.Key {
	if l.Target == nil {
		return keyspace.Key(r.Float64())
	}
	return l.Target(r)
}

// TargetFunc draws one query target from the load generator's stream.
type TargetFunc func(r *xrand.Stream) keyspace.Key

// UniformTargets spreads queries evenly over the key space.
func UniformTargets() TargetFunc {
	return func(r *xrand.Stream) keyspace.Key {
		return keyspace.Key(r.Float64())
	}
}

// DataTargets draws queries from the data distribution itself: hot key
// ranges receive proportionally more queries, the workload the paper's
// data-oriented applications imply.
func DataTargets(f dist.Distribution) TargetFunc {
	return func(r *xrand.Stream) keyspace.Key {
		return dist.Sample(f, r)
	}
}
