// Package smallworld is a from-scratch Go reproduction of "On Small
// World Graphs in Non-uniformly Distributed Key Spaces" (Girdzijauskas,
// Datta, Aberer — ICDE 2005): routing-efficient small-world overlay
// networks for peer populations with arbitrary, skewed identifier
// distributions.
//
// This package — the module root — implements the paper's primary
// contribution, the two extended Kleinberg small-world models:
//
// Model 1 ("uniform key distribution, logarithmic outdegree",
// Section 3): peers hold identifiers drawn uniformly from [0,1), each
// keeps two neighbour links (predecessor and successor in key order)
// plus log2(N) long-range links chosen with probability inversely
// proportional to the geometric distance d(u,v), restricted to
// d(u,v) >= 1/N. Theorem 1 shows greedy routing needs O(log2 N)
// expected hops.
//
// Model 2 ("skewed key distribution", Section 4): identifiers follow an
// arbitrary density f, and long-range links are chosen inversely
// proportional to the probability mass |∫ f| between the peers (Eq. 7),
// restricted to mass >= 1/N. Theorem 2 shows routing stays O(log2 N)
// independent of the skew, by the CDF normalisation argument of
// Figures 1-2.
//
// Both models, plus the classic Kleinberg construction with an
// arbitrary exponent r, are expressed through one Config: a distance
// Measure (geometric or mass), an Exponent, and a Degree function
// (constant through logarithmic). Build them with Build or the
// context-aware BuildContext.
//
// # Public packages
//
//   - . (module root) — the paper's two models and the Kleinberg
//     construction: Config/Build/Network, zero-allocation Routers,
//     range queries, partition analysis, fault models;
//   - dist — identifier densities with exact CDF and quantile maps
//     (uniform, power, truncated exponential/normal, Zipf, mixtures,
//     histogram estimation, flag parsing via dist.Parse);
//   - keyspace — the unit key space: Line/Ring topologies, the distance
//     of Eq. (1), intervals, sorted point search;
//   - graph — the mutable adjacency + frozen CSR graph core every hot
//     path iterates;
//   - metrics — streaming summaries, percentiles, Gini, χ², OLS fits;
//   - xrand — the deterministic splittable RNG behind every build;
//   - overlaynet — the unified Overlay interface, the name-keyed
//     topology registry covering every overlay in the repository (both
//     models, Kleinberg, Watts–Strogatz, Chord, Pastry, P-Grid,
//     Symphony, Mercury, CAN, and the live Section 4.2 protocol), and
//     the batched context-aware QueryRunner;
//   - overlaynet/shard — the sharded serving plane: the key space cut
//     into K contiguous shards, each served by its own goroutine
//     behind a wire address, a routed query becoming message frames
//     (query, one forward per shard boundary crossed, result) —
//     bit-identical routes and hops to the in-process router;
//   - wire — the message transport under the shard plane: a
//     transport-agnostic length-prefixed frame codec, the in-process
//     channel transport, and a netmodel-driven fault wrapper that
//     drops frames so the client's timeout/retry discipline is
//     exercised;
//   - sim — the deterministic discrete-event dynamics engine: arrival
//     processes (Poisson churn, flash crowds, diurnal waves, mass
//     failures, session lifetimes) drive any Dynamic overlay while a
//     query load routes concurrently, recording windowed time-series
//     health metrics with JSON/CSV export; plus the wall-clock serving
//     harness (sim.Serve) running closed-loop concurrent query workers
//     against overlaynet.Publisher snapshots;
//   - store — the replicated range-store data plane the overlay exists
//     to serve: put/get/scan resolved against overlaynet snapshots,
//     R-way replication to rank-index successors with monotone
//     (epoch, seq) stamps, ordered scans with read-repair, and
//     key/value handover on churn (event-driven from OwnershipChange
//     where the overlay narrates membership, snapshot diffing
//     otherwise, anti-entropy sweeps as the backstop);
//   - obs — the observability plane: sharded hot-path counters,
//     fixed-bucket base-2 histograms, deterministic 1-in-N query
//     tracing with Chrome trace-event export, and a live endpoint
//     (Prometheus /metrics, expvar, net/http/pprof); zero measurable
//     overhead when off, bit-identical runs when on.
//
// The comparison baselines themselves (internal/dht/*, internal/
// wattsstrogatz, internal/overlay) and the experiment harness
// (internal/exp) remain internal; external consumers reach every
// topology through overlaynet.
//
// # Performance core
//
// The experiment sweeps route millions of greedy queries over overlays
// up to a million peers (N = 2^20 is a routine build), so the hot path
// is deliberately flat:
//
//   - construction assembles the CSR (compressed sparse row) adjacency
//     directly in two parallel passes (graph.AssembleCSR: degree count →
//     prefix-sum offsets → parallel fill, per-node sort in place) — the
//     mutable builder graph is never materialised, only thawed lazily
//     for fault injection;
//   - the Exact link sampler draws from the literal model distribution
//     P[v] ∝ measure(u,v)^-r through a Walker alias table over dyadic
//     measure bands plus an exact rejection step, with the band
//     boundaries advanced by monotone cursors across each construction
//     chunk instead of per-node binary searches; builds stay
//     bit-reproducible per (cfg, seed) independent of Workers;
//   - routing runs through Router scratch buffers (Network.NewRouter)
//     with zero steady-state heap allocations — including the
//     fault-path policies (Router.RouteGreedyAvoiding,
//     Router.RouteBacktracking, whose visited set and frame stack live
//     on the same scratch); every greedy scan in the repository decides
//     each hop through the one rule keyspace.Topology.Improves;
//     overlaynet.QueryRunner batches queries with one Router per worker
//     and reusable result buffers, so warmed batches allocate nothing.
//
// PERFORMANCE.md documents the layout, the sampler's correctness
// argument, the micro-benchmarks (run `go test -bench . -benchtime
// 10x`; they report allocs/op), the internal/ → public migration table,
// and how to record an experiment baseline with `go run ./cmd/swbench
// -json BENCH_PR2.json`.
//
// # Dynamics
//
// Static snapshots are only half the paper's claim; the sim package
// evaluates trajectories. A one-line scenario drives the Section 4.2
// protocol overlay through sustained churn while lookups route
// concurrently in virtual time:
//
//	ov, _ := overlaynet.Build(ctx, "protocol",
//		overlaynet.Options{N: 256, Seed: 1, Dist: dist.NewPower(0.7)})
//	sc, _ := sim.Preset("steady", 256) // 10%/window Poisson churn
//	report, _ := sim.Run(ctx, ov.(overlaynet.Dynamic), sc)
//
// The same engine replays bit-identically per (overlay, Scenario);
// experiment E19 uses it to show O(log N) routing surviving ≥10%
// per-window churn. Static topologies become drivable through
// overlaynet.NewRebuild (idealised full reconstruction per event) or
// overlaynet.NewIncremental (O(k) local rewiring per event in
// copy-on-write row blocks — hundreds of times cheaper at equal routing
// quality; experiment E20 and the churn benchmarks quantify both).
//
// For real concurrency — goroutines routing while membership mutates —
// overlaynet.Publisher publishes immutable epoch snapshots through an
// atomic pointer (the RCU discipline): readers route lock-free against
// the latest Snapshot while Join/Leave apply on the writer side, and
// sim.Serve measures the resulting closed-loop serving capacity with
// hop and latency quantiles (experiment E21). The serving plane also
// shards: overlaynet/shard splits the key space across K servers
// behind the wire package's message transport, sim.Serve takes
// Shards: K (swsim: -shards K) and reports mean shard crossings per
// query, and experiment E24 prices the wire against the in-process
// baseline — where work executes changes, what is computed does not.
//
// # Range queries
//
// Range queries are why order preservation matters: RangeLookup routes
// greedily to the interval's low end and then walks successor cells.
// Its contract is exact: RangeResult.Nodes[0] is always the node whose
// half-open Cell contains the interval's low end — the locate
// correction walks key order (bounded by N) until the containing cell
// is reached, rather than probing a fixed neighbourhood, so degenerate
// identifier spacings (ulp-adjacent keys from heavily skewed densities,
// zero-width cells) and degraded locate terminals cannot surface a
// non-responsible first node. Cells tile the key space exactly once:
// the line's top cell ends at exactly 1 (inclusive top end), and when
// neighbouring identifiers coincide the upper one owns the shared
// point.
//
// See README.md for a tour. The benchmarks in bench_test.go regenerate
// every experiment table (run with -v to see them).
package smallworld
