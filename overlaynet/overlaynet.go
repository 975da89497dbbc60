// Package overlaynet is the unified public face of every overlay
// topology in this repository: the paper's two small-world models and
// the classic Kleinberg construction (package smallworld at the module
// root), the Watts–Strogatz rewiring model, the five DHT comparison
// baselines (Chord, Pastry, P-Grid, Symphony/Mercury, CAN), and the
// live Section 4.2 construction protocol ("protocol"), which runs on
// the incremental writer that serving uses (NewIncremental) and adds
// message metering and refinement rounds.
//
// Every topology is reachable through one typed contract:
//
//	ov, err := overlaynet.Build(ctx, "chord", overlaynet.Options{N: 4096, Seed: 1})
//	qr := overlaynet.NewQueryRunner(ov)
//	batch, err := qr.Run(ctx, overlaynet.RandomPairs(ov, 2, 10000))
//
// Topologies register themselves by name in a process-global registry
// (Register / Names / Lookup), so command-line tools select them with a
// string flag and future overlays plug into the whole experiment,
// metrics and benchmark machinery by adding one adapter.
//
// Routing can also run against a hostile message plane: RobustRouter
// drives RobustWalk, the one retry state machine (per-hop timeout,
// bounded retries with exponential backoff and jitter, next-best-
// neighbour fallback), over any Transport — package netmodel supplies
// loss, latency, dead/slow/byzantine nodes and partitions — and
// returns a typed Outcome: Delivered, DeliveredDegraded, TimedOut or
// Unroutable. Package sim's message flights drive the same machine in
// virtual time.
//
// Identifier convention: every overlay projects its nodes onto the unit
// key space [0,1) of package keyspace, whatever its native identifier
// space is. 64-bit ring DHTs (Chord, Pastry) divide their ids by 2^64;
// CAN uses the first (skewed) coordinate of each zone's midpoint;
// Watts–Strogatz places node i at i/N. Routing targets travel the other
// way through the same mapping, so one QueryRunner batch drives any
// overlay.
package overlaynet

import (
	"context"
	"fmt"

	"smallworld/keyspace"
)

// Result records one routed query.
type Result struct {
	// Hops is the number of overlay hops consumed.
	Hops int
	// Dest is the node at which routing terminated.
	Dest int
	// Arrived reports whether Dest is a correct destination for the
	// target: a node at minimal distance to it (or, for partition-based
	// overlays, the owner of its region).
	Arrived bool
}

// Router carries the per-goroutine scratch state of routing so that hot
// loops run without steady-state heap allocations where the underlying
// overlay supports it (the small-world family does). A Router is bound
// to one overlay and is NOT safe for concurrent use; QueryRunner holds
// one per worker.
type Router interface {
	// Route routes a query from node src to the peer responsible for
	// target.
	Route(src int, target keyspace.Key) Result
}

// Overlay is the common contract every topology implements. An Overlay
// is an immutable routable snapshot unless it also implements Dynamic.
type Overlay interface {
	// Kind returns the registry name the overlay was built under.
	Kind() string
	// N returns the number of nodes.
	N() int
	// Key returns node u's identifier projected onto the unit key space.
	Key(u int) keyspace.Key
	// Keys returns all identifiers, indexed by node. The slice must not
	// be modified. It may be a copy made per call (the incremental
	// writer's is), so hot paths read Key(u).
	Keys() []keyspace.Key
	// Neighbors returns the out-neighbours a query at node u may be
	// forwarded to. The slice must not be modified; dynamic overlays may
	// allocate per call.
	Neighbors(u int) []int32
	// NewRouter returns fresh routing scratch bound to this overlay.
	NewRouter() Router
	// Stats summarises the overlay's size and routing state.
	Stats() Stats
}

// Stats summarises an overlay's routing state.
type Stats struct {
	// Nodes is the network size.
	Nodes int
	// Links is the total number of directed out-links.
	Links int
	// MeanDegree and MaxDegree summarise per-node routing-table sizes.
	MeanDegree float64
	MaxDegree  int
}

func (s Stats) String() string {
	return fmt.Sprintf("nodes %d, links %d (out-degree mean %.2f max %d)",
		s.Nodes, s.Links, s.MeanDegree, s.MaxDegree)
}

// FaultInjector is implemented by overlays that can model partial
// routing-table loss (the Section 3.1 robustness setting).
type FaultInjector interface {
	Overlay
	// FailLinks returns a derived overlay in which each long-range link
	// has been dropped independently with probability frac, driven by
	// seed, or an error when frac is outside [0, 1] or NaN. The receiver
	// is unchanged.
	FailLinks(seed uint64, frac float64) (Overlay, error)
}

// Dynamic is implemented by live overlays whose membership can change
// after construction (NewIncremental, NewRebuild and the "protocol"
// entry). Node indices, keys and neighbour sets are invalidated by
// every membership change; routers must be re-created after Join or
// Leave, and must not route while one runs: a Dynamic overlay has a
// single writer.
type Dynamic interface {
	Overlay
	// Join adds one peer by the overlay's join protocol.
	Join(ctx context.Context) error
	// Leave removes node u (with repair, where the protocol defines it).
	Leave(ctx context.Context, u int) error
}

// statsOf derives Stats by scanning every node's neighbour set.
func statsOf(ov Overlay) Stats {
	s := Stats{Nodes: ov.N()}
	for u := 0; u < s.Nodes; u++ {
		d := len(ov.Neighbors(u))
		s.Links += d
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	if s.Nodes > 0 {
		s.MeanDegree = float64(s.Links) / float64(s.Nodes)
	}
	return s
}

// keyToU64 projects a unit-interval key onto the 64-bit identifier ring
// used by Chord and Pastry. The mapping is monotone and inverse (up to
// the 53-bit float64 mantissa) to u64ToKey.
func keyToU64(k keyspace.Key) uint64 {
	const mant = 1 << 53
	f := float64(k)
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return ^uint64(0)
	}
	return uint64(f*mant) << 11
}

// u64ToKey projects a 64-bit ring identifier onto the unit key space.
func u64ToKey(id uint64) keyspace.Key {
	const mant = 1 << 53
	return keyspace.Key(float64(id>>11) / mant)
}
