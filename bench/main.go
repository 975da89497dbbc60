// Command bench is the repository's end-to-end benchmark. It drives the
// public APIs of overlaynet, overlaynet/shard, wire, netmodel and store
// from outside, on four serving workloads generated from a seed, checks
// the answers, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root with bash bench/run.sh, or from this
// directory with go run . (see README.md):
//
//	go run . -workload lookup-large -seed 1 -seconds 10 -trace 0
//	go run . -seed 1                        # all four workloads
//	go run . -workload store-churn -trace 1 # per-layer metrics + Chrome trace
//	go run . -repeat 5 -out set.json        # median and IQR per metric
//	go run . -diff A.json B.json            # verdict per workload and metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// workload is one set of generated inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(r *run) error
}

var workloads = []workload{
	{"lookup-large", "N=2^20 frozen ring, 2 SnapshotRouter workers: a working set far above L3, so greedy stepping and adjacency layout dominate", lookupLarge},
	{"lookup-sharded", "N=2^14 cache-resident ring behind a 4-shard wire cluster, 2 clients: the frame codec, mailbox handoff and forwarding dominate", lookupSharded},
	{"store-churn", "N=4096 R=3 store, 30/60/10 put/get/scan beside 5 churn events/s: the only workload where the store and handover work", storeChurnWorkload},
	{"robust-churn", "N=2^16 lossy ring with 5% dead nodes, robust routing beside 1000 churn events/s: repair, publish and re-pinning under writes", robustChurnWorkload},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr, nil)) }

// cli runs the command and returns its exit code: 0 on success, 1 when
// a correctness check failed or a run errored, 2 on bad usage. adjust,
// when non-nil, edits the parsed configuration (tests use it to switch
// on the corruption hook).
func cli(args []string, stdout, stderr io.Writer, adjust func(*config)) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 15, "length of the timed window, in seconds")
	warmup := fs.Float64("warmup", 1, "warm-up before the timed window, in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run: per-layer metrics and a Chrome trace")
	traceOut := fs.String("trace-out", "", "Chrome trace path, suffixed -<workload> when running several (default .bench_build/trace/<workload>-seed<seed>.json)")
	short := fs.Bool("short", false, "tiny populations (smoke test)")
	repeat := fs.Int("repeat", 0, "run every selected workload this many times and summarise")
	out := fs.String("out", "", "with -repeat: write the set of runs to this JSON file")
	diff := fs.Bool("diff", false, "compare two set files given as arguments: A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -diff needs two set files")
			return 2
		}
		return diffSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 || *warmup < 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -warmup non-negative")
		return 2
	}
	var sel []workload
	if *name == "all" {
		sel = workloads
	} else if w, ok := findWorkload(*name); ok {
		sel = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		warmup:  time.Duration(*warmup * float64(time.Second)),
		short:   *short,
		trace:   *trace == 1,
	}
	if adjust != nil {
		adjust(&cfg)
	}
	if *repeat > 0 {
		if cfg.trace {
			fmt.Fprintln(stderr, "bench: -repeat measures end-to-end metrics; it takes no -trace")
			return 2
		}
		return repeatSet(sel, cfg, *repeat, *out, stdout, stderr)
	}

	var results []*result
	for _, w := range sel {
		c := cfg
		if c.trace {
			switch {
			case *traceOut == "":
				c.traceOut = fmt.Sprintf(".bench_build/trace/%s-seed%d.json", w.name, c.seed)
			case len(sel) > 1:
				c.traceOut = strings.TrimSuffix(*traceOut, ".json") + "-" + w.name + ".json"
			default:
				c.traceOut = *traceOut
			}
		}
		res, err := runWorkload(w, c)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(stdout, res, c)
		results = append(results, res)
	}
	line, ok := summaryLine(results, cfg.trace)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// runWorkload runs one workload once. An untraced run's time metrics
// are scaled to the reference host speed (see calibrate.go).
func runWorkload(w workload, cfg config) (*result, error) {
	r := newRun(w.name, cfg)
	if err := w.run(r); err != nil {
		return nil, err
	}
	if r.tr != nil {
		if err := r.finishTrace(); err != nil {
			return nil, err
		}
	}
	r.scaleToReference()
	r.res.attempted = r.attempted.Load()
	r.res.failed = r.failed.Load()
	return r.res, nil
}

// reported returns the metrics a run reports: end-to-end untraced,
// per-layer traced.
func reported(trace bool) []metric {
	if trace {
		return perLayer
	}
	return endToEnd
}

func printResult(w io.Writer, res *result, cfg config) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d, %.1f s timed, %s\n", res.workload, cfg.seed, cfg.seconds.Seconds(), mode)
	for _, m := range reported(cfg.trace) {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", m.name, res.metrics[m.name], m.unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d (fail frac %.6f)\n", res.attempted, res.failed,
		ratio(res.failed, res.attempted))
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summaryLine renders the final JSON line. With several workloads the
// metric names are prefixed with "<workload>/".
func summaryLine(results []*result, trace bool) (string, bool) {
	s := summary{Correct: true, Metrics: make(map[string]metricValue)}
	for _, res := range results {
		s.Attempted += res.attempted
		s.Failed += res.failed
		if res.failed > 0 || res.attempted == 0 {
			s.Correct = false
		}
		for _, m := range reported(trace) {
			v := res.metrics[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				s.Correct = false
				v = 0
			}
			key := m.name
			if len(results) > 1 {
				key = res.workload + "/" + m.name
			}
			s.Metrics[key] = metricValue{Value: v, Unit: m.unit}
		}
	}
	b, err := json.Marshal(s)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "error": %q}`, err.Error()), false
	}
	return string(b), s.Correct
}

// setFile is the -repeat output: every run's end-to-end metrics.
type setFile struct {
	Seed      uint64                               `json:"seed"`
	Seconds   float64                              `json:"seconds"`
	Repeat    int                                  `json:"repeat"`
	Workloads map[string]map[string]*metricSummary `json:"workloads"`
}

type metricSummary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// spread is the IQR as a share of the median.
func (m *metricSummary) spread() float64 {
	if m.Median == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Median)
}

// repeatSet runs the workloads round-robin, reps rounds, and summarises
// each end-to-end metric by its median and quartiles.
func repeatSet(sel []workload, cfg config, reps int, out string, stdout, stderr io.Writer) int {
	set := setFile{Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Repeat: reps,
		Workloads: make(map[string]map[string]*metricSummary)}
	code := 0
	for round := 0; round < reps; round++ {
		for _, w := range sel {
			res, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printResult(stdout, res, cfg)
			if res.failed > 0 {
				code = 1
			}
			ms := set.Workloads[w.name]
			if ms == nil {
				ms = make(map[string]*metricSummary)
				set.Workloads[w.name] = ms
			}
			for _, m := range endToEnd {
				if ms[m.name] == nil {
					ms[m.name] = &metricSummary{Unit: m.unit}
				}
				ms[m.name].Values = append(ms[m.name].Values, res.metrics[m.name])
			}
		}
	}
	fmt.Fprintf(stdout, "%-16s %-22s %14s %10s\n", "workload", "metric", "median", "IQR/med")
	for _, w := range sel {
		for _, m := range endToEnd {
			s := set.Workloads[w.name][m.name]
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			fmt.Fprintf(stdout, "%-16s %-22s %14.4f %9.1f%%\n", w.name, m.name, s.Median, 100*s.spread())
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "bench: encode set: %v\n", err)
			return 1
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

func readSet(path string) (*setFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads", path)
	}
	return &s, nil
}

// Verdicts of -diff.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict compares B against A for one metric. A change beyond the
// metric's bound is improved or regressed, within it unchanged. When
// either set's IQR is wider than the bound the comparison is unresolved,
// unless every run of B is better than every run of A.
func verdict(m metric, a, b *metricSummary) string {
	better := func(x, y float64) bool { // x better than y
		if m.higher {
			return x > y
		}
		return x < y
	}
	if a.Median == 0 {
		if b.Median == 0 {
			return unchanged
		}
		return unresolved
	}
	if max(a.spread(), b.spread()) > m.bound {
		for _, bv := range b.Values {
			for _, av := range a.Values {
				if !better(bv, av) {
					return unresolved
				}
			}
		}
		return improved
	}
	worse := (b.Median - a.Median) / math.Abs(a.Median)
	if m.higher {
		worse = -worse
	}
	switch {
	case worse > m.bound:
		return regressed
	case worse < -m.bound:
		return improved
	default:
		return unchanged
	}
}

// diffSets prints one row per workload and end-to-end metric.
func diffSets(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-16s %-22s %14s %14s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "change", "bound", "verdict")
	for _, n := range names {
		for _, m := range endToEnd {
			sa, sb := a.Workloads[n][m.name], b.Workloads[n][m.name]
			if sa == nil || sb == nil {
				fmt.Fprintf(stdout, "%-16s %-22s %s\n", n, m.name, "missing in one set")
				continue
			}
			change := 0.0
			if sa.Median != 0 {
				change = 100 * (sb.Median - sa.Median) / math.Abs(sa.Median)
			}
			fmt.Fprintf(stdout, "%-16s %-22s %14.4f %14.4f %7.1f%% %6.0f%%  %s\n",
				n, m.name, sa.Median, sb.Median, change, 100*m.bound, verdict(m, sa, sb))
		}
	}
	return 0
}
