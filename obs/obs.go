// Package obs is the observability plane: hot-path counters and
// histograms, sampled per-query traces, and a live serving endpoint
// (Prometheus text /metrics, expvar, net/http/pprof) — designed so that
// instrumentation costs nothing measurable when it is off and never
// perturbs a deterministic run when it is on.
//
// # Zero overhead when off, side-channel only when on
//
// Every instrumented hot path in this repository (the snapshot routers
// and RobustRouter, through the snapshots a Publisher instruments, the
// store data plane, netmodel sends, sim's message loop) holds an
// optional *Registry that is nil by default. Disabled instrumentation
// is one predictable nil-check per query; enabled instrumentation is a
// handful of uncontended atomic adds — counters are sharded across
// cache-line-padded cells indexed by a caller-held Hint, so concurrent
// serving workers never bounce a cache line.
//
// Nothing in this package ever consumes a random stream or influences
// a routing decision: trace sampling is a caller-local modular counter
// (Sampler), not a random draw, and every recorded value is read off
// state the instrumented code already computed. A scenario replayed
// with a Registry and Tracer installed produces bit-identical results
// to the same scenario with them off — sim's determinism guard pins
// this.
//
// # Counters and histograms
//
// Counter is a sharded monotone counter; Gauge is a single settable
// value; Histogram is a fixed-bucket base-2 histogram (one bucket per
// power of two, preallocated, no locks) with explicit underflow
// (v <= 0) and overflow (+Inf/NaN/too large) cells. All are safe for
// concurrent use and allocation-free on the update path.
//
// # Registry
//
// Registry is the preallocated set of metric families the repository's
// planes update. It is a plain struct — installing one is handing a
// pointer to the component (Publisher.SetObs, Store.SetObs,
// Model.SetObs, Scenario.Obs, ServeConfig.Obs) — and exposing it is
// WriteMetrics (Prometheus text exposition) or Serve (live HTTP
// endpoint).
//
//	reg := obs.NewRegistry()
//	pub.SetObs(reg, nil)
//	srv, _ := obs.Serve("127.0.0.1:9090", reg)
//	defer srv.Close()
//	// curl 127.0.0.1:9090/metrics
//	// go tool pprof 127.0.0.1:9090/debug/pprof/profile
//
// # Tracing
//
// A Tracer hands out preallocated Traces for 1-in-N queries; the
// instrumented path appends one Span per hop (node, candidate rank,
// retries, key distance, latency) through nil-safe methods, so the
// not-sampled case costs one local counter increment. Finished traces
// are kept in a bounded ring plus the worst-latency trace, and export
// as JSON or Chrome trace-event format (chrome://tracing, Perfetto).
package obs

import (
	"sync/atomic"
)

// Hint selects a counter shard. Callers that update counters from a
// long-lived goroutine (a router, a serve worker, the sim engine)
// obtain one Hint from Registry.NextHint and pass it to every update;
// two goroutines with different hints never contend on a cell.
type Hint uint32

// counterShards is the number of cells per Counter; power of two.
const counterShards = 8

// cell is one cache-line-padded counter shard.
type cell struct {
	v atomic.Uint64
	_ [56]byte // pad to 64 bytes: no false sharing between shards
}

// Counter is a sharded monotone counter. The zero value is ready to
// use. Update via Add/Inc with a Hint; read via Value (a full-fence sum
// over the shards — cheap relative to scrape rates, expensive relative
// to update rates, so readers poll and writers write).
type Counter struct {
	cells [counterShards]cell
}

// Add adds n to the shard selected by h.
func (c *Counter) Add(h Hint, n uint64) {
	c.cells[uint32(h)&(counterShards-1)].v.Add(n)
}

// Inc adds 1 to the shard selected by h.
func (c *Counter) Inc(h Hint) {
	c.cells[uint32(h)&(counterShards-1)].v.Add(1)
}

// Value returns the current total across all shards.
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].v.Load()
	}
	return sum
}

// Gauge is a single settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is the preallocated metric families of the repository's
// planes: counters, gauges and histograms, with nothing to configure.
// All fields are safe for concurrent use; a nil *Registry means
// instrumentation is off everywhere it would have been consulted.
//
// The name in brackets is the Prometheus metric each family exposes
// through WriteMetrics / Serve.
type Registry struct {
	hintCursor atomic.Uint32

	// Routing plane (greedy routers, RobustRouter, sim queries).
	RouteQueries  Counter    // [smallworld_route_queries_total]
	RouteHops     Counter    // [smallworld_route_hops_total]
	RouteFailures Counter    // [smallworld_route_failures_total]
	RouteRetries  Counter    // [smallworld_route_retries_total]
	RouteOutcomes [4]Counter // [smallworld_route_outcomes_total] indexed by overlaynet.Outcome
	HopsPerQuery  Histogram  // [smallworld_route_hops] hops per arrived query
	LatencyUs     Histogram  // [smallworld_route_latency_us] wall-clock µs (serving path)
	VirtLatency   Histogram  // [smallworld_route_virtual_latency] virtual time (sim / robust routing)

	// Serving plane (Publisher).
	PublishEpochs Counter // [smallworld_publish_epochs_total]
	SnapEpoch     Gauge   // [smallworld_snapshot_epoch]
	SnapNodes     Gauge   // [smallworld_snapshot_nodes]
	SnapDead      Gauge   // [smallworld_snapshot_dead]
	ServeQPS      Gauge   // [smallworld_serve_qps] last closed serving window

	// Discrete-event engine (sim).
	QueueDepth    Histogram // [smallworld_sim_queue_depth] event-queue depth at window edges
	FlightsActive Gauge     // [smallworld_sim_flights_active]

	// Store data plane.
	StorePuts         Counter   // [smallworld_store_puts_total]
	StoreAcked        Counter   // [smallworld_store_acked_writes_total]
	StoreGets         Counter   // [smallworld_store_gets_total]
	StoreScans        Counter   // [smallworld_store_scans_total]
	StoreReadRepairs  Counter   // [smallworld_store_read_repairs_total]
	StoreRereplicated Counter   // [smallworld_store_rereplicated_total]
	StoreTrimmed      Counter   // [smallworld_store_trimmed_total]
	StoreSweeps       Counter   // [smallworld_store_sweeps_total]
	StoreBytesMoved   Counter   // [smallworld_store_bytes_moved_total]
	StoreOpHops       Histogram // [smallworld_store_op_hops] overlay hops per store op

	// Message plane (netmodel).
	NetSends       Counter   // [smallworld_net_sends_total]
	NetLost        Counter   // [smallworld_net_lost_total]
	NetUnreachable Counter   // [smallworld_net_unreachable_total]
	NetLatency     Histogram // [smallworld_net_link_latency] per-delivery virtual latency

	// Sharded serving plane (overlaynet/shard over package wire).
	// ShardHops is labelled by owning shard (shard="i", folded mod
	// ShardLabels when K exceeds the array); CrossShardHops observes
	// the number of cross-shard forwards each completed query paid.
	WireSends      Counter              // [smallworld_wire_sends_total]
	WireBytes      Counter              // [smallworld_wire_bytes_total]
	ShardQueries   Counter              // [smallworld_shard_queries_total]
	ShardForwards  Counter              // [smallworld_shard_forwards_total]
	ShardHops      [ShardLabels]Counter // [smallworld_shard_hops_total]
	CrossShardHops Histogram            // [smallworld_shard_crossings]
}

// ShardLabels is the number of per-shard label series ShardHops keeps;
// clusters wider than this fold their shard index mod ShardLabels.
const ShardLabels = 16

// NewRegistry returns an empty registry. The zero value works too; the
// constructor exists for symmetry and future options.
func NewRegistry() *Registry { return &Registry{} }

// NextHint returns the next shard hint (round-robin). Nil-safe: a nil
// registry hands out hint 0, which callers never use because their
// instrumentation is off.
func (r *Registry) NextHint() Hint {
	if r == nil {
		return 0
	}
	return Hint(r.hintCursor.Add(1))
}
