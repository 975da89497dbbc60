package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smallworld/keyspace"
	"smallworld/metrics"
	"smallworld/obs"
	"smallworld/overlaynet"
	"smallworld/overlaynet/shard"
	"smallworld/wire"
	"smallworld/xrand"
)

// The serving harness is the wall-clock counterpart of the virtual-time
// engine: Run answers "how do routing metrics evolve under a modelled
// event schedule", Serve answers "how fast does this process actually
// serve queries while membership churns". Worker goroutines route in a
// closed loop against snapshots published by an overlaynet.Publisher —
// each worker pins one epoch, routes a batch, re-pins — while the
// writer side applies Poisson churn in real time. Because the load is
// closed-loop, the measured query rate IS the serving capacity at the
// configured concurrency.
//
// Serve is deliberately not replayable: it measures the machine. For
// bit-reproducible trajectories use Run; for capacity, latency
// quantiles and race coverage use Serve.

// Serving series names, in report order (hop series reuse the Run
// names).
const (
	SeriesQPS      = "qps"
	SeriesLatP50Us = "lat_p50_us"
	SeriesLatP95Us = "lat_p95_us"
	SeriesLatP99Us = "lat_p99_us"
	SeriesEpoch    = "epoch"
	SeriesChurn    = "churn_events"
	// SeriesCrossShard (mean cross-shard forwards per query) is emitted
	// only when ServeConfig.Shards > 0.
	SeriesCrossShard = "cross_shard_mean"
)

// serveLatCap bounds the per-worker latency/hop samples kept per
// window, so quantile memory stays flat however fast the machine
// routes. Counters and sums stay exact; quantiles above the cap are
// computed from the first serveLatCap samples of the window.
const serveLatCap = 8192

// ServeConfig describes one wall-clock serving run.
type ServeConfig struct {
	// Name labels the run in reports.
	Name string
	// Workers is the number of closed-loop query goroutines. Default
	// GOMAXPROCS.
	Workers int
	// Duration is the wall-clock run length. Default 1s.
	Duration time.Duration
	// Window is the metrics window. Default Duration/5.
	Window time.Duration
	// ChurnRate is the writer-side membership event rate in events per
	// wall-clock second (Poisson spaced). 0 freezes membership.
	ChurnRate float64
	// JoinFrac is the probability a churn event is a join. The zero
	// value means 0.5 (stationary population); values outside [0, 1]
	// are rejected. For an effectively leave-only drain pass a tiny
	// positive value (the zero value cannot mean "never join" without
	// breaking the package's zero-value-is-default convention).
	JoinFrac float64
	// MinNodes rejects departures below this population. Default 8,
	// clamped to at least 2 — no overlay can shrink below two nodes.
	MinNodes int
	// Seed drives the churn and per-worker query streams. The schedule
	// itself is wall-clock, so runs are NOT replayable (see package
	// comment); the seed only decorrelates streams.
	Seed uint64
	// Target draws query targets. Nil means uniform.
	Target TargetFunc
	// PinEvery is how many queries a worker routes against one pinned
	// snapshot before re-pinning to the latest epoch. Default 512.
	PinEvery int
	// Shards, when positive, partitions serving across K keyspace
	// shards behind the message wire (package overlaynet/shard): each
	// worker routes through its own shard client, so every query pays
	// real message sends — one query frame, one forward per shard
	// crossing, one result — and the report gains a cross-shard
	// forwarding series. 0 keeps the monolithic in-process router.
	// Routing computes the same thing either way (the shard package's
	// bit-identity tests pin it); one honest distributed-systems
	// artifact appears under churn: workers share the cluster but pin
	// epochs independently, so a query can race a fresher serving epoch
	// and fail cleanly — a fraction of a percent at preset churn rates.
	Shards int
	// Transport carries shard traffic when Shards > 0. Nil builds an
	// owned in-process channel transport torn down with the run; pass a
	// wire.NewFault-wrapped transport to compose sharded serving with
	// message-level faults (and set ShardTimeout/ShardRetries so lost
	// frames surface as clean routing failures instead of hangs).
	Transport wire.Transport
	// ShardTimeout bounds one shard query attempt's wait for its result
	// frame; ShardRetries is the resend budget after the first timeout.
	// Zero values wait forever / never resend — correct only on a
	// loss-free transport. Ignored when Shards is 0.
	ShardTimeout time.Duration
	ShardRetries int
	// Obs, when non-nil, is installed on the publisher for the run
	// (Publisher.SetObs): published snapshots carry the counter hooks,
	// workers feed the wall-clock latency histogram, and the loop keeps
	// the serving QPS gauge fresh at each window edge.
	Obs *obs.Registry
	// Tracer rides along with Obs on the publisher, sampling per-query
	// hop traces from the snapshot routers.
	Tracer *obs.Tracer
}

// withServeDefaults resolves zero fields to their documented defaults.
func (cfg ServeConfig) withServeDefaults() ServeConfig {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.Window <= 0 || cfg.Window > cfg.Duration {
		cfg.Window = cfg.Duration / 5
	}
	if cfg.JoinFrac == 0 {
		cfg.JoinFrac = 0.5
	}
	if cfg.MinNodes <= 0 {
		cfg.MinNodes = 8
	}
	if cfg.MinNodes < 2 {
		cfg.MinNodes = 2
	}
	if cfg.PinEvery <= 0 {
		cfg.PinEvery = 512
	}
	return cfg
}

// ServeTotals aggregates a whole serving run.
type ServeTotals struct {
	Queries  int64 `json:"queries"`
	Arrived  int64 `json:"arrived"`
	Failures int64 `json:"failures"`
	Joins    int   `json:"joins"`
	Leaves   int   `json:"leaves"`
	// Rejected counts departures refused by the MinNodes guard.
	Rejected int `json:"rejected"`
	// Epochs is the number of snapshots published during the run.
	Epochs uint64 `json:"epochs"`
	// StartNodes and FinalNodes bracket the published population.
	StartNodes int `json:"start_nodes"`
	FinalNodes int `json:"final_nodes"`
}

// ServeReport is the recorded outcome of one Serve run: totals,
// whole-run quantiles, and one windowed series per health metric.
type ServeReport struct {
	Scenario string  `json:"scenario"`
	Overlay  string  `json:"overlay"`
	Workers  int     `json:"workers"`
	Seconds  float64 `json:"seconds"`
	// Shards and CrossMean describe the sharded serving plane: shard
	// count and mean cross-shard forwards per query. Zero when the run
	// served through the monolithic in-process router.
	Shards    int              `json:"shards,omitempty"`
	CrossMean float64          `json:"cross_shard_mean,omitempty"`
	Totals    ServeTotals      `json:"totals"`
	QPS       float64          `json:"qps"`
	HopsMean  float64          `json:"hops_mean"`
	HopsP50   float64          `json:"hops_p50"`
	HopsP95   float64          `json:"hops_p95"`
	HopsP99   float64          `json:"hops_p99"`
	LatP50Us  float64          `json:"lat_p50_us"`
	LatP95Us  float64          `json:"lat_p95_us"`
	LatP99Us  float64          `json:"lat_p99_us"`
	Series    []metrics.Series `json:"series"`
}

// Get returns the named series, or nil.
func (r *ServeReport) Get(name string) *metrics.Series {
	for i := range r.Series {
		if r.Series[i].Name == name {
			return &r.Series[i]
		}
	}
	return nil
}

// WriteJSON writes the report as indented JSON.
func (r *ServeReport) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// WriteCSV writes every series as wide-format CSV sharing one time
// column (seconds since run start).
func (r *ServeReport) WriteCSV(w io.Writer) error {
	return metrics.SeriesCSV(w, r.Series...)
}

// String renders the windowed serving table plus a totals line.
func (r *ServeReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve %s on %s (%d workers, %.2fs wall clock)\n",
		r.Scenario, r.Overlay, r.Workers, r.Seconds)
	if r.Shards > 0 {
		fmt.Fprintf(&b, "sharded: K=%d over the message wire, %.2f cross-shard forwards/query\n",
			r.Shards, r.CrossMean)
	}
	cols := []string{"t(s)", "qps", "hops", "p95", "latP95µs", "fail%", "nodes", "epoch"}
	names := []string{SeriesQPS, SeriesHopsMean, SeriesHopsP95, SeriesLatP95Us,
		SeriesFailRate, SeriesLiveNodes, SeriesEpoch}
	fmt.Fprintf(&b, "%8s", cols[0])
	for _, c := range cols[1:] {
		fmt.Fprintf(&b, "  %9s", c)
	}
	b.WriteByte('\n')
	if qps := r.Get(SeriesQPS); qps != nil {
		for i, p := range qps.Points {
			fmt.Fprintf(&b, "%8.3g", p.T)
			for _, name := range names {
				s := r.Get(name)
				v := 0.0
				if s != nil && i < len(s.Points) {
					v = s.Points[i].V
				}
				switch name {
				case SeriesFailRate:
					fmt.Fprintf(&b, "  %9.2f", 100*v)
				case SeriesHopsMean, SeriesHopsP95, SeriesLatP95Us:
					fmt.Fprintf(&b, "  %9.2f", v)
				default:
					fmt.Fprintf(&b, "  %9.0f", v)
				}
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "totals: %d queries (%.0f/s, mean %.2f hops, p99 %.2f, lat p99 %.1fµs), %d joins, %d leaves, %d epochs, %d→%d nodes\n",
		r.Totals.Queries, r.QPS, r.HopsMean, r.HopsP99, r.LatP99Us,
		r.Totals.Joins, r.Totals.Leaves, r.Totals.Epochs,
		r.Totals.StartNodes, r.Totals.FinalNodes)
	return b.String()
}

// serveAcc is one worker's shared accumulator. Workers batch their
// samples locally and flush at snapshot re-pin boundaries, so the mutex
// is taken a few times per thousand queries, not per query. The
// trailing pad rounds the struct up to two cache lines: the accs are
// allocated back-to-back, and without it the 96-byte size class makes
// consecutive workers' mutex/counter words share a line, so even the
// infrequent flushes ping-pong lines between cores.
type serveAcc struct {
	mu       sync.Mutex
	queries  int64
	failures int64
	hopSum   float64
	latSum   float64
	crossSum float64   // cross-shard forwards (sharded runs only)
	hops     []float64 // capped at serveLatCap per window
	lats     []float64 // µs, capped at serveLatCap per window
	_        [32]byte
}

// flush merges a worker-local batch into the accumulator.
func (a *serveAcc) flush(queries, failures int64, hopSum, latSum, crossSum float64, hops, lats []float64) {
	a.mu.Lock()
	a.queries += queries
	a.failures += failures
	a.hopSum += hopSum
	a.latSum += latSum
	a.crossSum += crossSum
	if room := serveLatCap - len(a.hops); room > 0 {
		a.hops = append(a.hops, hops[:min(room, len(hops))]...)
	}
	if room := serveLatCap - len(a.lats); room > 0 {
		a.lats = append(a.lats, lats[:min(room, len(lats))]...)
	}
	a.mu.Unlock()
}

// drain moves the accumulated window into the caller's buffers and
// resets the accumulator.
func (a *serveAcc) drain(hops, lats *[]float64) (queries, failures int64, hopSum, latSum, crossSum float64) {
	a.mu.Lock()
	queries, failures = a.queries, a.failures
	hopSum, latSum, crossSum = a.hopSum, a.latSum, a.crossSum
	*hops = append(*hops, a.hops...)
	*lats = append(*lats, a.lats...)
	a.queries, a.failures, a.hopSum, a.latSum, a.crossSum = 0, 0, 0, 0, 0
	a.hops = a.hops[:0]
	a.lats = a.lats[:0]
	a.mu.Unlock()
	return
}

// Serve runs cfg's closed-loop query load against pub's published
// snapshots while applying writer-side churn, and returns the recorded
// report. The context cancels the run early; the report built so far is
// returned alongside the context error. Serve owns the writer side for
// the duration of the run — concurrent external Join/Leave calls are
// safe (the Publisher serialises writers) but will skew the recorded
// churn counts.
func Serve(ctx context.Context, pub *overlaynet.Publisher, cfg ServeConfig) (*ServeReport, error) {
	if pub == nil {
		return nil, fmt.Errorf("sim: nil publisher")
	}
	cfg = cfg.withServeDefaults()
	if math.IsNaN(cfg.ChurnRate) || math.IsInf(cfg.ChurnRate, 0) || cfg.ChurnRate < 0 {
		return nil, fmt.Errorf("sim: churn rate %v must be finite and non-negative", cfg.ChurnRate)
	}
	if math.IsNaN(cfg.JoinFrac) || cfg.JoinFrac < 0 || cfg.JoinFrac > 1 {
		return nil, fmt.Errorf("sim: join fraction %v outside [0,1]", cfg.JoinFrac)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("sim: shard count %d must be non-negative", cfg.Shards)
	}

	if cfg.Obs != nil || cfg.Tracer != nil {
		pub.SetObs(cfg.Obs, cfg.Tracer)
	}

	// Sharded serving plane: one cluster, one wire client per worker.
	var cluster *shard.Cluster
	var clients []*shard.Client
	if cfg.Shards > 0 {
		var err error
		cluster, err = shard.New(pub, shard.Config{
			Shards: cfg.Shards, Transport: cfg.Transport, Obs: cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		defer cluster.Close()
		clients = make([]*shard.Client, cfg.Workers)
		for w := range clients {
			cl, err := cluster.NewClient()
			if err != nil {
				return nil, err
			}
			cl.Timeout, cl.Retries = cfg.ShardTimeout, cfg.ShardRetries
			clients[w] = cl
		}
	}

	master := xrand.New(cfg.Seed)
	churnRNG := master.Split()
	accs := make([]*serveAcc, cfg.Workers)
	seeds := make([]uint64, cfg.Workers)
	for w := range accs {
		accs[w] = &serveAcc{
			hops: make([]float64, 0, serveLatCap),
			lats: make([]float64, 0, serveLatCap),
		}
		seeds[w] = master.Uint64()
	}

	firstEpoch := pub.Epoch()
	rep := &ServeReport{
		Scenario: cfg.Name,
		Overlay:  pub.Snapshot().Kind(),
		Workers:  cfg.Workers,
		Shards:   cfg.Shards,
		Totals:   ServeTotals{StartNodes: pub.Snapshot().N()},
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		var cl *shard.Client
		if clients != nil {
			cl = clients[w]
		}
		go func(acc *serveAcc, seed uint64, cl *shard.Client) {
			defer wg.Done()
			serveWorker(pub, cfg, acc, seed, cl, &stop)
		}(accs[w], seeds[w], cl)
	}

	// The recorder state lives on a recorder goroutine that closes each
	// window (drain, sort, series update) at the window tick, so that
	// work never delays churn. The writer, on this goroutine, only
	// counts the window's joins and leaves; workers only touch their
	// accumulators. The last close runs here once both have stopped.
	start := time.Now()
	rec := newServeRecorder(cfg.Shards > 0)
	var joins, leaves, rejected int
	var winJoins, winLeaves atomic.Int64
	closeWindow := func(now time.Time) {
		rec.closeWindow(rep, accs, pub, now.Sub(start).Seconds(), int(winJoins.Swap(0)), int(winLeaves.Swap(0)))
		if cfg.Obs != nil {
			if p, ok := rec.series[0].Last(); ok {
				cfg.Obs.ServeQPS.Set(int64(p.V))
			}
		}
	}

	end := start.Add(cfg.Duration)
	endT := time.NewTimer(time.Until(end))
	defer endT.Stop()
	winT := time.NewTicker(cfg.Window)
	defer winT.Stop()
	recStop := make(chan struct{})
	recDone := make(chan struct{})
	go func() {
		defer close(recDone)
		for {
			select {
			case <-recStop:
				return
			case t := <-winT.C:
				closeWindow(t)
			}
		}
	}()
	churn := newChurnClock(cfg.ChurnRate, churnRNG)
	defer churn.stop()

	var err error
loop:
	for {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break loop
		case <-endT.C:
			break loop
		case <-churn.c:
			// Apply every event already due when the writer woke, so a
			// writer that busy readers delayed catches up; later ones
			// wait for the next wake, which lets cancellation and the
			// end of the run through.
			woke := time.Now()
			for !churn.due.After(woke) && ctx.Err() == nil && time.Now().Before(end) {
				if churnRNG.Bool(cfg.JoinFrac) {
					if jerr := pub.Join(ctx); jerr != nil {
						err = jerr
						break loop
					} else {
						joins++
						winJoins.Add(1)
					}
				} else if n := pub.LiveN(); n <= cfg.MinNodes {
					rejected++
				} else if lerr := pub.Leave(ctx, churnRNG.Intn(n)); lerr != nil {
					err = lerr
					break loop
				} else {
					leaves++
					winLeaves.Add(1)
				}
				churn.advance(churnRNG)
			}
			churn.arm()
		}
	}
	stop.Store(true)
	wg.Wait()
	close(recStop)
	<-recDone
	closeWindow(time.Now())

	rep.Seconds = time.Since(start).Seconds()
	rep.Totals.Joins, rep.Totals.Leaves, rep.Totals.Rejected = joins, leaves, rejected
	rep.Totals.Epochs = pub.Epoch() - firstEpoch + 1
	rep.Totals.FinalNodes = pub.Snapshot().N()
	rec.finish(rep)
	return rep, err
}

// serveRouter is the worker-side routing surface both serving planes
// share: the monolithic *overlaynet.SnapshotRouter and the sharded
// *shard.Client.
type serveRouter interface {
	Route(src int, target keyspace.Key) overlaynet.Result
	Rebind(*overlaynet.Snapshot)
}

// serveWorker is one closed-loop query goroutine: pin a snapshot, route
// PinEvery queries on a worker-private router and RNG, flush the batch
// into the shared accumulator, re-pin, repeat until stopped. With a
// shard client the re-pin rebinds the whole cluster — workers race to
// the latest epoch, which is harmless: Serve measures the machine, not
// a replayable trajectory, and every epoch any worker pins is a
// published one.
func serveWorker(pub *overlaynet.Publisher, cfg ServeConfig, acc *serveAcc, seed uint64, cl *shard.Client, stop *atomic.Bool) {
	rng := xrand.New(seed)
	target := cfg.Target
	if target == nil {
		target = UniformTargets()
	}
	// Hop/outcome counters and trace sampling come from the snapshot's
	// own hooks (the publisher attached them); the worker adds the one
	// thing the router cannot know — wall-clock latency.
	reg := cfg.Obs
	snap := pub.Snapshot()
	var router serveRouter
	if cl != nil {
		router = cl
	} else {
		router = snap.NewRouter().(*overlaynet.SnapshotRouter)
	}
	hops := make([]float64, 0, cfg.PinEvery)
	lats := make([]float64, 0, cfg.PinEvery)
	for !stop.Load() {
		var queries, failures int64
		var hopSum, latSum, crossSum float64
		hops, lats = hops[:0], lats[:0]
		n := snap.N()
		for i := 0; i < cfg.PinEvery; i++ {
			src := rng.Intn(n)
			// Draw the target before starting the clock: the latency
			// samples must time Route alone, not the distribution's
			// quantile evaluation.
			tgt := target(rng)
			t0 := time.Now()
			res := router.Route(src, tgt)
			lat := float64(time.Since(t0).Nanoseconds()) / 1e3
			if reg != nil {
				reg.LatencyUs.Observe(lat)
			}
			queries++
			if res.Arrived {
				h := float64(res.Hops)
				hopSum += h
				hops = append(hops, h)
			} else {
				failures++
			}
			if cl != nil {
				crossSum += float64(cl.Crossings())
			}
			latSum += lat
			lats = append(lats, lat)
		}
		acc.flush(queries, failures, hopSum, latSum, crossSum, hops, lats)
		snap = pub.Snapshot()
		router.Rebind(snap)
	}
}

// churnClock schedules Poisson churn open-loop: each event has an
// absolute wall-clock due time, one exponential gap after the previous
// one, however late the writer applied that. c fires when the earliest
// unapplied event falls due; a zero rate leaves c nil, so it never
// fires.
type churnClock struct {
	rate  float64
	due   time.Time
	timer *time.Timer
	c     <-chan time.Time
}

func newChurnClock(rate float64, rng *xrand.Stream) *churnClock {
	cc := &churnClock{rate: rate, due: time.Now()}
	if rate > 0 {
		cc.advance(rng)
		cc.timer = time.NewTimer(time.Until(cc.due))
		cc.c = cc.timer.C
	}
	return cc
}

// advance moves the due time one exponential gap on.
func (cc *churnClock) advance(rng *xrand.Stream) {
	cc.due = cc.due.Add(time.Duration(rng.ExpFloat64() / cc.rate * float64(time.Second)))
}

// arm sets c to fire at the due time, at once when it has passed.
func (cc *churnClock) arm() { cc.timer.Reset(time.Until(cc.due)) }

func (cc *churnClock) stop() {
	if cc.timer != nil {
		cc.timer.Stop()
	}
}

// serveRecorder assembles the windowed series and the whole-run
// quantile samples.
type serveRecorder struct {
	series   [13]metrics.Series
	sharded  bool // emit the cross-shard series (13th slot)
	allHops  []float64
	allLats  []float64
	hopSum   float64
	latSum   float64
	crossSum float64
	queries  int64
	failures int64
	winHops  []float64
	winLats  []float64
}

func newServeRecorder(sharded bool) *serveRecorder {
	rec := &serveRecorder{sharded: sharded}
	names := []string{
		SeriesQPS, SeriesHopsMean, SeriesHopsP50, SeriesHopsP95, SeriesHopsP99,
		SeriesLatP50Us, SeriesLatP95Us, SeriesLatP99Us,
		SeriesFailRate, SeriesLiveNodes, SeriesEpoch, SeriesChurn,
	}
	if sharded {
		names = append(names, SeriesCrossShard)
	}
	for i, name := range names {
		rec.series[i].Name = name
	}
	return rec
}

// closeWindow drains every worker accumulator and appends one point per
// series at wall-clock offset t.
func (rec *serveRecorder) closeWindow(rep *ServeReport, accs []*serveAcc, pub *overlaynet.Publisher, t float64, winJoins, winLeaves int) {
	rec.winHops = rec.winHops[:0]
	rec.winLats = rec.winLats[:0]
	var queries, failures int64
	var hopSum, latSum, crossSum float64
	for _, acc := range accs {
		q, f, hs, ls, cs := acc.drain(&rec.winHops, &rec.winLats)
		queries += q
		failures += f
		hopSum += hs
		latSum += ls
		crossSum += cs
	}
	if queries == 0 && winJoins+winLeaves == 0 {
		return
	}
	rec.queries += queries
	rec.failures += failures
	rec.hopSum += hopSum
	rec.latSum += latSum
	rec.crossSum += crossSum
	rec.allHops = append(rec.allHops, rec.winHops...)
	rec.allLats = append(rec.allLats, rec.winLats...)

	sort.Float64s(rec.winHops)
	sort.Float64s(rec.winLats)
	arrived := queries - failures
	meanHops, failRate := 0.0, 0.0
	if arrived > 0 {
		meanHops = hopSum / float64(arrived)
	}
	if queries > 0 {
		failRate = float64(failures) / float64(queries)
	}
	var lastT float64
	if p, ok := rec.series[0].Last(); ok {
		lastT = p.T
	}
	winSeconds := t - lastT
	qps := 0.0
	if winSeconds > 0 {
		qps = float64(queries) / winSeconds
	}
	snap := pub.Snapshot()
	for i, v := range []float64{
		qps, meanHops,
		quantileOrZero(rec.winHops, 0.50),
		quantileOrZero(rec.winHops, 0.95),
		quantileOrZero(rec.winHops, 0.99),
		quantileOrZero(rec.winLats, 0.50),
		quantileOrZero(rec.winLats, 0.95),
		quantileOrZero(rec.winLats, 0.99),
		failRate, float64(snap.N()), float64(snap.Epoch()), float64(winJoins + winLeaves),
	} {
		rec.series[i].Add(t, v)
	}
	if rec.sharded {
		crossMean := 0.0
		if queries > 0 {
			crossMean = crossSum / float64(queries)
		}
		rec.series[12].Add(t, crossMean)
	}
}

// quantileOrZero guards the empty-window case: a window that recorded
// churn but no arrived queries (writer-starved readers, all-failure
// batches) must record 0, not NaN — json.Marshal rejects NaN, which
// would make WriteJSON fail after an otherwise successful run.
func quantileOrZero(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return metrics.PercentileSorted(sorted, p)
}

// finish computes whole-run aggregates into the report.
func (rec *serveRecorder) finish(rep *ServeReport) {
	rep.Series = rec.series[:12]
	if rec.sharded {
		rep.Series = rec.series[:13]
		if rec.queries > 0 {
			rep.CrossMean = rec.crossSum / float64(rec.queries)
		}
	}
	rep.Totals.Queries = rec.queries
	rep.Totals.Failures = rec.failures
	rep.Totals.Arrived = rec.queries - rec.failures
	if rep.Seconds > 0 {
		rep.QPS = float64(rec.queries) / rep.Seconds
	}
	if rep.Totals.Arrived > 0 {
		rep.HopsMean = rec.hopSum / float64(rep.Totals.Arrived)
	}
	sort.Float64s(rec.allHops)
	sort.Float64s(rec.allLats)
	rep.HopsP50 = quantileOrZero(rec.allHops, 0.50)
	rep.HopsP95 = quantileOrZero(rec.allHops, 0.95)
	rep.HopsP99 = quantileOrZero(rec.allHops, 0.99)
	rep.LatP50Us = quantileOrZero(rec.allLats, 0.50)
	rep.LatP95Us = quantileOrZero(rec.allLats, 0.95)
	rep.LatP99Us = quantileOrZero(rec.allLats, 0.99)
}

// servePresetFuncs build each named serving scenario for a starting
// population n. Churn rates scale with n, mirroring the virtual-time
// presets' per-node intensity.
var servePresetFuncs = map[string]func(n int) ServeConfig{
	// frozen: membership fixed; pure read-path capacity scaling.
	"frozen": func(n int) ServeConfig {
		return ServeConfig{Name: "frozen", Duration: 2 * time.Second, Window: 400 * time.Millisecond}
	},
	// steady: stationary churn at 2% of the population per second while
	// the closed-loop load serves — the tentpole's serve-while-churning
	// setting.
	"steady": func(n int) ServeConfig {
		return ServeConfig{
			Name: "steady", Duration: 2 * time.Second, Window: 400 * time.Millisecond,
			ChurnRate: 0.02 * float64(n),
		}
	},
	// surge: an order of magnitude more churn, stressing epoch
	// publication and reader staleness.
	"surge": func(n int) ServeConfig {
		return ServeConfig{
			Name: "surge", Duration: 2 * time.Second, Window: 400 * time.Millisecond,
			ChurnRate: 0.2 * float64(n),
		}
	},
}

// ServePreset returns the named serving scenario sized for a starting
// population of n nodes. See ServePresetNames for the catalogue.
func ServePreset(name string, n int) (ServeConfig, error) {
	f, ok := servePresetFuncs[name]
	if !ok {
		return ServeConfig{}, fmt.Errorf("sim: unknown serve preset %q (have: %s)",
			name, strings.Join(ServePresetNames(), ", "))
	}
	if n < 2 {
		return ServeConfig{}, fmt.Errorf("sim: serve preset needs n >= 2, got %d", n)
	}
	return f(n), nil
}

// ServePresetNames returns the built-in serving scenario names in
// sorted order.
func ServePresetNames() []string {
	names := make([]string, 0, len(servePresetFuncs))
	for name := range servePresetFuncs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
