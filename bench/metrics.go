package main

// metric describes one reported number. BENCHMARK.json at the
// repository root carries the same table (TestBenchmarkJSONMatches
// keeps the two in step).
type metric struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // end-to-end only: the share of the median it may worsen by
	// phase, for an end-to-end time (or, if higher, rate), names the
	// part of the run it was measured in; it is reported at reference
	// host speed using the calibration slices of that part. "" = not a
	// time.
	phase string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from an untraced run. A frozen-membership workload gets its
// churn number from the membership probe that follows its timed window
// (see README.md). Latency tails (p99 of requests and of membership
// events) spread by more than a tenth across seeds on the shared host
// even after calibration, so, as the benchmark's own rule asks, they are
// reported by their means; the runs print the raw tails as notes.
var endToEnd = []metric{
	{"setup_s", "s", false, 0.25, phaseSetup},
	{"heap_bytes_per_node", "B", false, 0.05, ""},
	{"ops_per_s", "1/s", true, 0.25, phaseWindow},
	{"op_p50_us", "us", false, 0.25, phaseWindow},
	{"op_mean_us", "us", false, 0.25, phaseWindow},
	{"hops_mean", "hops", false, 0.02, ""},
	{"churn_mean_us", "us", false, 0.25, phaseChurn},
}

// perLayer are the traced run's metrics, one group per layer. A layer a
// workload does not exercise reports 0.
var perLayer = []metric{
	{name: "overlaynet.route_us_p50", unit: "us"},
	{name: "overlaynet.route_us_p99", unit: "us"},
	{name: "overlaynet.greedy_step_ns", unit: "ns"},
	{name: "overlaynet.hops_per_route", unit: "hops"},
	{name: "overlaynet.pin_ns", unit: "ns"},

	{name: "overlaynet.robust_route_self_us_p50", unit: "us"},
	{name: "overlaynet.robust_route_self_us_p99", unit: "us"},
	{name: "overlaynet.robust_first_route_us_p50", unit: "us"},
	{name: "overlaynet.robust_retries_per_route", unit: "count"},
	{name: "overlaynet.robust_degraded_frac", unit: "frac"},
	{name: "overlaynet.robust_unroutable_frac", unit: "frac"},
	{name: "overlaynet.robust_timeout_frac", unit: "frac"},

	{name: "overlaynet.churn_self_us_p50", unit: "us"},
	{name: "overlaynet.churn_self_us_p99", unit: "us"},
	{name: "overlaynet.publish_event_us_p50", unit: "us"},
	{name: "overlaynet.plain_event_us_p50", unit: "us"},
	{name: "overlaynet.epochs_per_s", unit: "1/s", higher: true},

	{name: "netmodel.sends_per_route", unit: "count"},
	{name: "netmodel.send_ns", unit: "ns"},
	{name: "netmodel.lost_frac", unit: "frac"},
	{name: "netmodel.unreachable_frac", unit: "frac"},

	{name: "graph.csr_bytes_per_node", unit: "B"},
	{name: "graph.edges_per_node", unit: "count"},

	{name: "wire.send_ns_p50", unit: "ns"},
	{name: "wire.send_ns_p99", unit: "ns"},
	{name: "wire.mailbox_wait_us_p50", unit: "us"},
	{name: "wire.mailbox_wait_us_p99", unit: "us"},
	{name: "wire.frames_per_query", unit: "count"},
	{name: "wire.bytes_per_query", unit: "B"},

	{name: "shard.query_handler_self_us", unit: "us"},
	{name: "shard.forward_handler_self_us", unit: "us"},
	{name: "shard.result_handler_us", unit: "us"},
	{name: "shard.client_wait_us", unit: "us"},
	{name: "shard.crossings_per_query", unit: "count"},
	{name: "shard.load_max_over_mean", unit: "ratio"},

	{name: "store.put_self_us_p50", unit: "us"},
	{name: "store.put_self_us_p99", unit: "us"},
	{name: "store.get_self_us_p50", unit: "us"},
	{name: "store.get_self_us_p99", unit: "us"},
	{name: "store.scan_self_us_p50", unit: "us"},
	{name: "store.scan_self_us_p99", unit: "us"},
	{name: "store.locate_us_p50", unit: "us"},
	{name: "store.handover_us_p50", unit: "us"},
	{name: "store.handover_us_p99", unit: "us"},
	{name: "store.lock_wait_frac", unit: "frac"},
	{name: "store.lock_wait_us_p99", unit: "us"},
	{name: "store.rereplicated_per_event", unit: "count"},
	{name: "store.bytes_moved_per_event", unit: "B"},
	{name: "store.transfers_per_event", unit: "count"},
	{name: "store.scan_kvs_per_scan", unit: "count", higher: true},
	{name: "store.scan_cells_per_scan", unit: "count"},
	{name: "store.hops_per_op", unit: "hops"},

	{name: "bench.churn_late_us_p99", unit: "us"},
	{name: "bench.churn_done_over_offered", unit: "ratio", higher: true},
	{name: "bench.trace_overhead_frac", unit: "frac"},
}
