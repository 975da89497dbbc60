// Command swsim builds one overlay and reports its routing behaviour —
// the interactive companion to swbench. Topologies are selected by
// registry name from the unified overlaynet API, so every overlay in the
// repository (the paper's two models, Kleinberg, Watts–Strogatz, and the
// DHT baselines) is reachable from one flag.
//
// Usage:
//
//	swsim -list
//	swsim [-topology smallworld-skewed] [-n 4096] \
//	      [-dist uniform|power:0.8|exp:8|normal:0.5,0.1|zipf:256,1] \
//	      [-keyspace ring|line] [-sampler protocol|exact] \
//	      [-degree 0=default] [-exponent 0=1] [-queries 2000] [-seed 1] \
//	      [-fail 0.5] [-verbose]
//
// Scenario mode switches from a static snapshot to the discrete-event
// dynamics engine (package sim): the overlay is driven through churn
// while a query load routes concurrently, and windowed health series
// are printed (and optionally exported):
//
//	swsim -scenario list
//	swsim -scenario steady [-topology protocol] [-n 512] [-duration 100] \
//	      [-window 10] [-sim-seed 1] [-sim-json report.json] [-sim-csv report.csv]
//
// Scenario mode can route every query over a hostile message plane
// (package netmodel): -loss and -faults overlay per-hop loss and
// crashed nodes on any preset (the lossy/partition-heal/byzantine
// presets configure their own), -partition cuts the key space mid-run
// and heals it, and -fault-seed re-rolls fault placement without
// touching the churn/load trajectory:
//
//	swsim -scenario lossy -n 512
//	swsim -scenario steady -loss 0.05 -faults 0.1 -fault-seed 7
//	swsim -scenario steady -partition 0.25,0.75
//
// The replicated range store (package store) can ride any scenario as
// its workload: -store turns every load event into a put/get/scan over
// the overlay, with R-way replication, key/value handover on churn and
// a durability oracle auditing every acknowledged write (-replicas sets
// R and implies -store). The chunks preset runs the sequential-chunk
// storage workload:
//
//	swsim -scenario massfail -store -replicas 3
//	swsim -scenario chunks -n 512
//
// Topologies that do not implement Dynamic are wrapped with
// overlaynet.NewRebuild, so every registered overlay is drivable;
// -dynamic incremental selects overlaynet.NewIncremental's O(k)
// per-event repair for the offline small-world constructors instead.
//
// Serve mode measures the real thing: the overlay is wrapped in an
// overlaynet.Publisher and a closed-loop wall-clock query load routes
// lock-free against published snapshots while churn applies on the
// writer side (package sim's Serve harness):
//
//	swsim -serve list
//	swsim -serve steady [-topology smallworld-skewed] [-n 65536] \
//	      [-workers 8] [-serve-duration 2s] [-dynamic incremental] \
//	      [-sim-json report.json] [-sim-csv report.csv]
//
// Serve mode can shard the serving plane: -shards K splits the key
// space into K contiguous shards (overlaynet/shard), each served by
// its own goroutine behind the message wire, so every routed query
// pays real frames — one query, one forward per shard crossing, one
// result — and the report grows a cross_shard_mean series. -wire
// selects the transport (chan, the in-process channel wire, is the
// only one today; the frame codec is transport-agnostic):
//
//	swsim -serve steady -n 16384 -shards 4 -wire chan
//
// Both scenario and serve mode can run under the observability plane
// (package obs): -obs-addr exposes live Prometheus text /metrics,
// expvar and net/http/pprof for the duration of the run, -trace-out
// dumps sampled per-query hop traces in Chrome trace-event format
// (load in chrome://tracing or ui.perfetto.dev), and -trace-sample
// tunes the 1-in-N sampling gate:
//
//	swsim -serve steady -n 65536 -serve-duration 60s -obs-addr :9090
//	swsim -scenario lossy -n 512 -trace-out traces.json -trace-sample 64
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"smallworld"
	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/metrics"
	"smallworld/netmodel"
	"smallworld/obs"
	"smallworld/overlaynet"
	"smallworld/sim"
)

func main() {
	list := flag.Bool("list", false, "print registered topologies and exit")
	topology := flag.String("topology", "smallworld-skewed", "overlay topology (registry name; see -list)")
	n := flag.Int("n", 4096, "number of peers")
	distFlag := flag.String("dist", "uniform", "identifier distribution")
	keyspaceFlag := flag.String("keyspace", "ring", "key space geometry for the small-world family: ring or line")
	sampler := flag.String("sampler", "protocol", "small-world link sampler: protocol or exact")
	degree := flag.Int("degree", 0, "long links per peer (0 = topology default)")
	exponent := flag.Float64("exponent", 0, "link-selection exponent r (0 = harmonic)")
	queries := flag.Int("queries", 2000, "number of random lookups")
	seed := flag.Uint64("seed", 1, "random seed")
	fail := flag.Float64("fail", 0, "fraction of long links to fail before routing")
	verbose := flag.Bool("verbose", false, "print per-partition link histogram (small-world family)")
	scenario := flag.String("scenario", "", "run a churn scenario instead of a static snapshot ('list' prints presets)")
	serve := flag.String("serve", "", "run a wall-clock serving scenario against a snapshot Publisher ('list' prints presets)")
	workers := flag.Int("workers", 0, "serve mode: closed-loop query goroutines (0 = GOMAXPROCS)")
	serveDuration := flag.Duration("serve-duration", 0, "serve mode: wall-clock run length (0 = preset default)")
	shards := flag.Int("shards", 0, "serve mode: split serving into K keyspace shards over the message wire (0 = monolithic in-process)")
	wireFlag := flag.String("wire", "chan", "serve mode: wire transport for -shards (chan = in-process channel transport)")
	dynamic := flag.String("dynamic", "", "churn driver for static topologies: rebuild (default) or incremental (offline small-world constructors only)")
	duration := flag.Float64("duration", 0, "scenario duration in virtual time (0 = preset default)")
	window := flag.Float64("window", 0, "scenario metrics window (0 = preset default)")
	loss := flag.Float64("loss", -1, "scenario mode: per-hop message loss probability (-1 = preset default)")
	faults := flag.Float64("faults", -1, "scenario mode: fraction of crashed nodes on the fault plane (-1 = preset default)")
	partition := flag.String("partition", "", "scenario mode: cut the key space at comma-separated points, e.g. 0.25,0.75 (cut at t=0.4·duration, healed at 0.6·duration)")
	faultSeed := flag.Uint64("fault-seed", 0, "scenario mode: seed for the fault plane, split from -seed's churn/load streams (0 = derive from -seed)")
	storeFlag := flag.Bool("store", false, "scenario mode: run the replicated range store as the workload (put/get/scan with a durability oracle)")
	replicas := flag.Int("replicas", 0, "scenario mode: store replica count R (0 = default 3; implies -store)")
	simJSON := flag.String("sim-json", "", "write the scenario report as JSON to this file")
	simCSV := flag.String("sim-csv", "", "write the scenario series as CSV to this file")
	obsAddr := flag.String("obs-addr", "", "serve live /metrics, expvar and /debug/pprof on this address for the run, e.g. :9090")
	traceOut := flag.String("trace-out", "", "write sampled query traces as Chrome trace-event JSON to this file (scenario and serve modes)")
	traceSample := flag.Int("trace-sample", 0, "trace sampling gate: keep 1 in N queries (0 = default 128)")
	flag.Parse()

	if *list {
		for _, name := range overlaynet.Names() {
			info, _ := overlaynet.Lookup(name)
			fmt.Printf("%-20s %s\n", name, info.Description)
		}
		return
	}

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "swsim: %v\n", err)
		os.Exit(1)
	}

	if err := checkCounts(*queries, *replicas); err != nil {
		die(err)
	}
	d, err := dist.Parse(*distFlag)
	if err != nil {
		die(err)
	}
	opts := overlaynet.Options{
		N:        *n,
		Seed:     *seed,
		Dist:     d,
		Degree:   *degree,
		Exponent: *exponent,
		Sampler:  *sampler,
	}
	switch *keyspaceFlag {
	case "ring":
		opts.Topology = keyspace.Ring
	case "line":
		opts.Topology = keyspace.Line
	default:
		die(fmt.Errorf("unknown keyspace %q", *keyspaceFlag))
	}

	ctx := context.Background()

	if *dynamic != "" && *dynamic != "rebuild" && *dynamic != "incremental" {
		die(fmt.Errorf("unknown -dynamic %q (want rebuild or incremental)", *dynamic))
	}
	if *dynamic != "" && *scenario == "" && *serve == "" {
		die(fmt.Errorf("-dynamic only applies to churn scenarios; pass -scenario or -serve too"))
	}
	if *scenario != "" && *serve != "" {
		die(fmt.Errorf("-scenario and -serve are mutually exclusive"))
	}
	if *shards > 0 && *serve == "" {
		die(fmt.Errorf("-shards only applies to serve mode; pass -serve too"))
	}
	if *wireFlag != "chan" {
		die(fmt.Errorf("unknown -wire %q (chan is the only wire transport)", *wireFlag))
	}

	// buildDynamic resolves the churn driver shared by -scenario and
	// -serve: the topology's own Dynamic implementation when it has one,
	// otherwise incremental O(k) repair or full rebuild per -dynamic.
	buildDynamic := func() overlaynet.Dynamic {
		if *dynamic == "incremental" {
			// Incremental O(k)-per-event repair; only the offline
			// small-world constructors support it.
			dyn, err := overlaynet.NewIncremental(ctx, *topology, opts)
			if err != nil {
				die(err)
			}
			fmt.Printf("(%s wrapped with overlaynet.NewIncremental)\n", *topology)
			return dyn
		}
		built, err := overlaynet.Build(ctx, *topology, opts)
		if err != nil {
			die(err)
		}
		if live, ok := built.(overlaynet.Dynamic); ok {
			return live
		}
		fmt.Printf("(%s is static; wrapping with overlaynet.NewRebuild)\n", *topology)
		dyn, err := overlaynet.NewRebuildFrom(built, *topology, opts)
		if err != nil {
			die(err)
		}
		return dyn
	}
	writeReport := func(path string, write func(*os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			die(err)
		}
		if err := write(f); err != nil {
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	// Observability side-plane shared by -scenario and -serve: a counter
	// registry (exported live when -obs-addr is set) plus a sampled
	// tracer when a trace dump was asked for. Neither perturbs a seeded
	// run — instrumentation reads no random stream.
	var reg *obs.Registry
	var tracer *obs.Tracer
	if *obsAddr != "" || *traceOut != "" || *traceSample > 0 {
		reg = obs.NewRegistry()
	}
	if *traceOut != "" || *traceSample > 0 {
		tracer = obs.NewTracer(obs.TracerConfig{Sample: *traceSample})
	}
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			die(err)
		}
		defer srv.Close()
		fmt.Printf("obs: serving /metrics, /debug/vars and /debug/pprof on http://%s\n", srv.Addr())
	}
	dumpTraces := func() {
		if *traceOut == "" {
			return
		}
		writeReport(*traceOut, func(f *os.File) error { return tracer.WriteChrome(f) })
	}

	if *serve != "" {
		if *serve == "list" {
			for _, name := range sim.ServePresetNames() {
				fmt.Println(name)
			}
			return
		}
		cfg, err := sim.ServePreset(*serve, *n)
		if err != nil {
			die(err)
		}
		cfg.Seed = *seed
		cfg.Target = sim.DataTargets(d)
		if *workers > 0 {
			cfg.Workers = *workers
		}
		if *serveDuration > 0 {
			// A preset Window longer than the shortened Duration is
			// re-derived by sim.Serve's own defaulting.
			cfg.Duration = *serveDuration
		}
		cfg.Obs, cfg.Tracer = reg, tracer
		cfg.Shards = *shards
		pub, err := overlaynet.NewPublisher(buildDynamic())
		if err != nil {
			die(err)
		}
		report, err := sim.Serve(ctx, pub, cfg)
		if err != nil {
			die(err)
		}
		fmt.Print(report)
		writeReport(*simJSON, func(f *os.File) error { return report.WriteJSON(f) })
		writeReport(*simCSV, func(f *os.File) error { return report.WriteCSV(f) })
		dumpTraces()
		return
	}

	if *scenario != "" {
		if *scenario == "list" {
			for _, name := range sim.PresetNames() {
				fmt.Println(name)
			}
			return
		}
		sc, err := sim.Preset(*scenario, *n)
		if err != nil {
			die(err)
		}
		if *duration > 0 {
			sc.Duration = *duration
		}
		if *window > 0 {
			sc.Window = *window
		}
		sc.Seed = *seed
		sc.Load.Target = sim.DataTargets(d)
		sc.FaultSeed = *faultSeed
		sc.Obs, sc.Tracer = reg, tracer
		if *loss >= 0 || *faults >= 0 {
			if sc.Faults == nil {
				sc.Faults = &netmodel.Config{}
			}
			if *loss >= 0 {
				sc.Faults.Loss = *loss
			}
			if *faults >= 0 {
				sc.Faults.DeadFrac = *faults
			}
		}
		if *storeFlag || *replicas > 0 {
			if sc.Store == nil {
				sc.Store = &sim.StoreScenario{}
			}
			if *replicas > 0 {
				sc.Store.Replicas = *replicas
			}
		}
		if *partition != "" {
			var cuts []float64
			for _, s := range strings.Split(*partition, ",") {
				var c float64
				if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &c); err != nil {
					die(fmt.Errorf("bad -partition cut %q: %v", s, err))
				}
				cuts = append(cuts, c)
			}
			sc.Arrivals = append(sc.Arrivals, &sim.PartitionEvent{
				At:     0.4 * sc.Duration,
				HealAt: 0.6 * sc.Duration,
				Cuts:   cuts,
			})
		}

		report, err := sim.Run(ctx, buildDynamic(), sc)
		if err != nil {
			die(err)
		}
		fmt.Print(report)
		writeReport(*simJSON, func(f *os.File) error { return report.WriteJSON(f) })
		writeReport(*simCSV, func(f *os.File) error { return report.WriteCSV(f) })
		dumpTraces()
		return
	}

	ov, err := overlaynet.Build(ctx, *topology, opts)
	if err != nil {
		die(err)
	}
	if *fail != 0 {
		// FailLinks rejects a fraction outside [0, 1], NaN included.
		fi, ok := ov.(overlaynet.FaultInjector)
		if !ok {
			die(fmt.Errorf("topology %q does not support link failure injection", *topology))
		}
		if ov, err = fi.FailLinks(*seed+1, *fail); err != nil {
			die(err)
		}
	}

	stats := ov.Stats()
	fmt.Printf("network: topology=%s n=%d dist=%s seed=%d\n", ov.Kind(), ov.N(), d.Name(), *seed)
	fmt.Printf("state: %s\n", stats)

	qr := overlaynet.NewQueryRunner(ov, overlaynet.FailHops(float64(ov.N())))
	batch, err := qr.Run(ctx, overlaynet.RandomPairs(ov, *seed+2, *queries))
	if err != nil {
		die(err)
	}
	fmt.Printf("lookups: %d, arrived %.1f%%\n", batch.Executed,
		100*float64(batch.Arrived)/float64(batch.Executed))
	fmt.Printf("hops: mean %.2f  p50 %.0f  p95 %.0f  p99 %.0f  max %.0f\n",
		metrics.Mean(batch.Hops),
		metrics.Percentile(batch.Hops, 0.5), metrics.Percentile(batch.Hops, 0.95),
		metrics.Percentile(batch.Hops, 0.99), metrics.Percentile(batch.Hops, 1))

	if *verbose {
		sw, ok := ov.(interface{ Network() *smallworld.Network })
		if !ok {
			fmt.Printf("\n(-verbose histogram needs a small-world topology)\n")
			return
		}
		nw := sw.Network()
		fmt.Println("\nlong-range links per doubling partition (normalised space):")
		counts := nw.LinkPartitionCounts()
		total := 0
		for _, c := range counts {
			total += c
		}
		for j, c := range counts {
			share := 0.0
			if total > 0 {
				share = 100 * float64(c) / float64(total)
			}
			fmt.Printf("  A%-2d %7d  %5.1f%%  %s\n", j+1, c, share,
				strings.Repeat("#", int(share)))
		}
	}
}

// checkCounts rejects the count flags no run can use: fewer than one
// lookup, whose hop statistics would be NaN, and a negative replica
// count, which would otherwise run the scenario without the store.
func checkCounts(queries, replicas int) error {
	if queries < 1 {
		return fmt.Errorf("-queries %d: need at least 1 lookup", queries)
	}
	if replicas < 0 {
		return fmt.Errorf("-replicas %d: need 0 (the default R) or more", replicas)
	}
	return nil
}
