package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"smallworld/metrics"
	"smallworld/overlaynet"
)

// Canonical series names, in report order.
const (
	SeriesHopsMean  = "hops_mean"
	SeriesHopsP50   = "hops_p50"
	SeriesHopsP95   = "hops_p95"
	SeriesHopsP99   = "hops_p99"
	SeriesFailRate  = "fail_rate"
	SeriesTimeouts  = "timeout_rate"
	SeriesQueries   = "queries"
	SeriesJoins     = "joins"
	SeriesLeaves    = "leaves"
	SeriesLiveNodes = "live_nodes"
	SeriesStaleness = "staleness"
	SeriesMaintMsgs = "maint_msgs"
	SeriesTotalMsgs = "total_msgs"
	SeriesMsgsPerOp = "maint_msgs_per_op"

	// Robust-routing series, all zero unless the scenario sets Faults:
	// per-window outcome rates, wall-clock end-to-end latency quantiles
	// of arrived queries, and mean resends per query.
	SeriesDegraded   = "degraded_rate"
	SeriesUnroutable = "unroutable_rate"
	SeriesLatP50     = "lat_p50"
	SeriesLatP95     = "lat_p95"
	SeriesLatP99     = "lat_p99"
	SeriesRetries    = "retries_per_query"

	// Storage-workload series, all zero unless the scenario sets Store:
	// ops per window, the fraction of oracle-audited reads that observed
	// a lost acknowledged write, scan correctness against the oracle,
	// the re-replication backlog at the window edge, and value bytes
	// moved between nodes for repair during the window.
	SeriesStoreOps        = "store_ops"
	SeriesAckedLossRate   = "acked_loss_rate"
	SeriesScanCorrectness = "scan_correctness"
	SeriesReplBacklog     = "rerepl_backlog"
	SeriesBytesMoved      = "bytes_moved"
)

// Totals aggregates a whole run.
type Totals struct {
	Queries  int `json:"queries"`
	Arrived  int `json:"arrived"`
	Failures int `json:"failures"`
	Timeouts int `json:"timeouts"`
	Joins    int `json:"joins"`
	Leaves   int `json:"leaves"`
	// Maintenance counts explicit maintenance rounds.
	Maintenance int `json:"maintenance"`
	// Rejected counts departures refused by the MinNodes population
	// guard.
	Rejected int `json:"rejected"`
	// SessionMisses counts scheduled session departures whose
	// identifier no longer existed at firing time — the node already
	// left through other churn, or the overlay does not preserve
	// identifiers across membership changes (overlaynet.NewRebuild
	// resamples all keys per event, so rebuild-wrapped overlays
	// under-count session leaves by design).
	SessionMisses int `json:"session_misses"`
	// StartNodes and FinalNodes bracket the population trajectory.
	StartNodes int `json:"start_nodes"`
	FinalNodes int `json:"final_nodes"`
	// TotalMessages and MaintMessages are overlay hops consumed during
	// the run (zero when the overlay does not implement Messenger).
	TotalMessages int64 `json:"total_messages"`
	MaintMessages int64 `json:"maint_messages"`

	// Robust-routing totals, populated only under a fault plane.
	// Degraded counts arrived queries that needed retries, fallbacks,
	// a byzantine detour, or a stand-in destination (a subset of
	// Arrived); Unroutable counts queries stopped by partition or dead
	// regions (a subset of Failures — the rest timed out); Retries
	// counts resends beyond first attempts across all queries.
	Degraded   int `json:"degraded,omitempty"`
	Unroutable int `json:"unroutable,omitempty"`
	Retries    int `json:"retries,omitempty"`

	// Store aggregates the storage workload, nil unless the scenario
	// set Store.
	Store *StoreTotals `json:"store,omitempty"`

	hopSum float64
	latSum float64
}

// StoreTotals aggregates a run's storage workload: op counts, the
// durability audit, and the repair economy.
type StoreTotals struct {
	Replicas    int   `json:"replicas"`
	Puts        int64 `json:"puts"`
	AckedWrites int64 `json:"acked_writes"`
	Gets        int64 `json:"gets"`
	Scans       int64 `json:"scans"`
	// OpsFailed counts storage ops whose locate flight never reached
	// the data (fault-plane runs only); failed puts write nothing and
	// are never acknowledged.
	OpsFailed int64 `json:"ops_failed,omitempty"`
	// StaleReads counts oracle-audited gets that observed a missing or
	// older version of an acknowledged write at read time.
	StaleReads int64 `json:"stale_reads,omitempty"`
	// ScanMismatches counts scans that missed an acknowledged key (or
	// returned it stale) against the oracle.
	ScanMismatches int64 `json:"scan_mismatches,omitempty"`
	// LostAcked is the end-of-run durability audit: acknowledged writes
	// no longer readable at their acknowledged stamp from the key's
	// current replica set. The replication contract is that this stays
	// zero whenever no more than Replicas-1 nodes fail between repairs.
	LostAcked int `json:"lost_acked"`
	// Keys is the number of distinct acknowledged keys.
	Keys int `json:"keys"`

	ReadRepairs  int64 `json:"read_repairs"`
	Rereplicated int64 `json:"rereplicated"`
	Trimmed      int64 `json:"trimmed"`
	// BytesMoved is value bytes copied between nodes for repair
	// (handover, read-repair and sweeps); BytesPerChurn divides it by
	// the run's membership events — the handover price of one churn
	// event.
	BytesMoved    int64   `json:"bytes_moved"`
	BytesPerChurn float64 `json:"bytes_per_churn"`
	Sweeps        int64   `json:"sweeps"`
	// BacklogEnd is the re-replication debt left at the end of the run.
	BacklogEnd int `json:"backlog_end"`
}

// MeanHops returns the mean hop count over every arrived query.
func (t Totals) MeanHops() float64 {
	if t.Arrived == 0 {
		return 0
	}
	return t.hopSum / float64(t.Arrived)
}

// FailRate returns the fraction of queries that did not arrive.
func (t Totals) FailRate() float64 {
	if t.Queries == 0 {
		return 0
	}
	return float64(t.Failures) / float64(t.Queries)
}

// MeanLatency returns the mean end-to-end wall latency over every
// arrived query (zero outside fault-plane runs, where routing is
// instantaneous).
func (t Totals) MeanLatency() float64 {
	if t.Arrived == 0 {
		return 0
	}
	return t.latSum / float64(t.Arrived)
}

// TraceEvent is one replayed event, captured when Scenario.RecordTrace
// is set: the virtual time, the op name, and an op-dependent value
// (population after a join/leave, hop count of an arrived query, -1 for
// a failed one).
type TraceEvent struct {
	T  float64 `json:"t"`
	Op string  `json:"op"`
	V  float64 `json:"v"`
}

// Report is the recorded outcome of one Run: run-level totals, one
// windowed time series per health metric, and (optionally) the full
// event trace.
type Report struct {
	Scenario string           `json:"scenario"`
	Overlay  string           `json:"overlay"`
	Seed     uint64           `json:"seed"`
	Duration float64          `json:"duration"`
	Window   float64          `json:"window"`
	Totals   Totals           `json:"totals"`
	Series   []metrics.Series `json:"series"`
	Trace    []TraceEvent     `json:"trace,omitempty"`

	// Robust marks a fault-plane run: queries flew as per-hop messages
	// and the robust series/totals are meaningful.
	Robust bool `json:"robust,omitempty"`

	// Hops holds every arrived query's hop count in execution order,
	// for whole-run quantiles. Excluded from JSON (the windowed series
	// carry the exported shape).
	Hops []float64 `json:"-"`
	// Latencies holds every arrived query's end-to-end wall latency in
	// completion order, for whole-run quantiles. Fault-plane runs only.
	Latencies []float64 `json:"-"`
}

// Get returns the named series, or nil.
func (r *Report) Get(name string) *metrics.Series {
	for i := range r.Series {
		if r.Series[i].Name == name {
			return &r.Series[i]
		}
	}
	return nil
}

// HopQuantile returns the p-quantile of all arrived queries' hops.
func (r *Report) HopQuantile(p float64) float64 {
	return metrics.Percentile(r.Hops, p)
}

// LatencyQuantile returns the p-quantile of all arrived queries'
// end-to-end wall latencies (zero outside fault-plane runs).
func (r *Report) LatencyQuantile(p float64) float64 {
	return metrics.Percentile(r.Latencies, p)
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// WriteCSV writes every series as wide-format CSV sharing one time
// column.
func (r *Report) WriteCSV(w io.Writer) error {
	return metrics.SeriesCSV(w, r.Series...)
}

// String renders the windowed health table plus a totals line.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s on %s (seed %d, duration %g, window %g)\n",
		r.Scenario, r.Overlay, r.Seed, r.Duration, r.Window)
	cols := []string{"t", "nodes", "joins", "leaves", "queries", "hops", "p95", "fail%", "stale", "maintMsgs"}
	names := []string{SeriesLiveNodes, SeriesJoins, SeriesLeaves, SeriesQueries,
		SeriesHopsMean, SeriesHopsP95, SeriesFailRate, SeriesStaleness, SeriesMaintMsgs}
	fmt.Fprintf(&b, "%8s", cols[0])
	for _, c := range cols[1:] {
		fmt.Fprintf(&b, "  %9s", c)
	}
	b.WriteByte('\n')
	live := r.Get(SeriesLiveNodes)
	if live != nil {
		for i, p := range live.Points {
			fmt.Fprintf(&b, "%8.5g", p.T)
			for _, name := range names {
				s := r.Get(name)
				v := 0.0
				if s != nil && i < len(s.Points) {
					v = s.Points[i].V
				}
				switch name {
				case SeriesFailRate:
					fmt.Fprintf(&b, "  %9.1f", 100*v)
				case SeriesHopsMean, SeriesHopsP95:
					fmt.Fprintf(&b, "  %9.2f", v)
				default:
					fmt.Fprintf(&b, "  %9.0f", v)
				}
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "totals: %d queries (%.1f%% arrived, mean %.2f hops), %d joins, %d leaves, %d→%d nodes",
		r.Totals.Queries, 100*(1-r.Totals.FailRate()), r.Totals.MeanHops(),
		r.Totals.Joins, r.Totals.Leaves, r.Totals.StartNodes, r.Totals.FinalNodes)
	if r.Totals.MaintMessages > 0 {
		fmt.Fprintf(&b, ", %d maint msgs", r.Totals.MaintMessages)
	}
	b.WriteByte('\n')
	if r.Robust {
		tot := r.Totals
		pct := func(n int) float64 {
			if tot.Queries == 0 {
				return 0
			}
			return 100 * float64(n) / float64(tot.Queries)
		}
		fmt.Fprintf(&b, "robust: %.1f%% delivered, %.1f%% degraded, %.1f%% timeout, %.1f%% unroutable, %d retries, lat mean %.4f p95 %.4f\n",
			pct(tot.Arrived-tot.Degraded), pct(tot.Degraded), pct(tot.Timeouts), pct(tot.Unroutable),
			tot.Retries, tot.MeanLatency(), r.LatencyQuantile(0.95))
	}
	if st := r.Totals.Store; st != nil {
		scanOK := 100.0
		if st.Scans > 0 {
			scanOK = 100 * float64(st.Scans-st.ScanMismatches) / float64(st.Scans)
		}
		fmt.Fprintf(&b, "store: R=%d, %d keys, %d puts (%d acked, %d lost), %d gets (%d stale), %d scans (%.1f%% correct), %d rereplicated, %d bytes moved (%.0f/churn), backlog %d\n",
			st.Replicas, st.Keys, st.Puts, st.AckedWrites, st.LostAcked,
			st.Gets, st.StaleReads, st.Scans, scanOK,
			st.Rereplicated, st.BytesMoved, st.BytesPerChurn, st.BacklogEnd)
	}
	return b.String()
}

// recorder accumulates one metrics window at a time and closes it into
// the series set.
type recorder struct {
	sc      Scenario
	overlay string

	winHops                  []float64
	winQueries, winFails     int
	winTimeouts              int
	winJoins, winLeaves      int
	winDegraded, winUnroutbl int
	winRetries               int
	winLats                  []float64
	lastTotal, lastMaint     int64
	startTotal, startMaint   int64
	metered                  bool
	robust                   bool

	series  [25]metrics.Series
	tot     Totals
	all     []float64
	allLats []float64
	sorted  []float64 // per-window quantile scratch, reused across windows
	trace   []TraceEvent
}

func newRecorder(sc Scenario, ov overlaynet.Dynamic) *recorder {
	rec := &recorder{sc: sc, overlay: ov.Kind()}
	rec.tot.StartNodes = ov.N()
	// Pre-size every reused buffer from the scenario's expectations so
	// the event loop runs without steady-state growth: one point per
	// window in each series, and roughly Rate·Window query hops per
	// window (Poisson fluctuations beyond the slack grow amortised).
	windows := int(sc.Duration/sc.Window) + 2
	perWindow := int(sc.Load.Rate*sc.Window) + 16
	perWindow += perWindow / 4
	for i, name := range []string{
		SeriesHopsMean, SeriesHopsP50, SeriesHopsP95, SeriesHopsP99,
		SeriesFailRate, SeriesTimeouts, SeriesQueries, SeriesJoins,
		SeriesLeaves, SeriesLiveNodes, SeriesStaleness, SeriesMaintMsgs,
		SeriesTotalMsgs, SeriesMsgsPerOp,
		SeriesDegraded, SeriesUnroutable, SeriesLatP50, SeriesLatP95,
		SeriesLatP99, SeriesRetries,
		SeriesStoreOps, SeriesAckedLossRate, SeriesScanCorrectness,
		SeriesReplBacklog, SeriesBytesMoved,
	} {
		rec.series[i].Name = name
		rec.series[i].Points = make([]metrics.Point, 0, windows)
	}
	rec.winHops = make([]float64, 0, perWindow)
	rec.sorted = make([]float64, 0, perWindow)
	rec.all = make([]float64, 0, int(sc.Load.Rate*sc.Duration)+16)
	if sc.Faults != nil {
		rec.winLats = make([]float64, 0, perWindow)
		rec.allLats = make([]float64, 0, int(sc.Load.Rate*sc.Duration)+16)
	}
	return rec
}

// baseMsgs records the overlay's cumulative message counters at run
// start, so construction traffic does not pollute the run's deltas.
func (rec *recorder) baseMsgs(total, maint int64) {
	rec.metered = true
	rec.startTotal, rec.startMaint = total, maint
	rec.lastTotal, rec.lastMaint = total, maint
}

func (rec *recorder) event(t float64, op string, v float64) {
	if rec.sc.RecordTrace {
		rec.trace = append(rec.trace, TraceEvent{T: t, Op: op, V: v})
	}
}

func (rec *recorder) join(t float64) {
	rec.winJoins++
	rec.tot.Joins++
	rec.event(t, "join", float64(rec.tot.Joins))
}

func (rec *recorder) leave(t float64) {
	rec.winLeaves++
	rec.tot.Leaves++
	rec.event(t, "leave", float64(rec.tot.Leaves))
}

func (rec *recorder) maintain(t float64) {
	rec.tot.Maintenance++
	rec.event(t, "maintain", 0)
}

func (rec *recorder) rejected() { rec.tot.Rejected++ }

func (rec *recorder) sessionMiss() { rec.tot.SessionMisses++ }

func (rec *recorder) partition(t float64) { rec.event(t, "partition", 0) }

func (rec *recorder) heal(t float64) { rec.event(t, "heal", 0) }

func (rec *recorder) query(t float64, res overlaynet.Result) {
	rec.winQueries++
	rec.tot.Queries++
	if res.Arrived {
		h := float64(res.Hops)
		rec.winHops = append(rec.winHops, h)
		rec.all = append(rec.all, h)
		rec.tot.Arrived++
		rec.tot.hopSum += h
		rec.event(t, "query", h)
	} else {
		rec.winFails++
		rec.tot.Failures++
		rec.event(t, "query", -1)
	}
}

// queryRobust records one completed message flight: a typed outcome,
// its delivered hop count and resend count, and — for arrived queries
// — the end-to-end wall latency. Timed-out flights feed the timeout
// counters, which only message flights fill.
func (rec *recorder) queryRobust(t float64, o overlaynet.Outcome, hops, retries int, latency float64) {
	rec.robust = true
	rec.winQueries++
	rec.tot.Queries++
	rec.winRetries += retries
	rec.tot.Retries += retries
	if o.Arrived() {
		h := float64(hops)
		rec.winHops = append(rec.winHops, h)
		rec.all = append(rec.all, h)
		rec.winLats = append(rec.winLats, latency)
		rec.allLats = append(rec.allLats, latency)
		rec.tot.Arrived++
		rec.tot.hopSum += h
		rec.tot.latSum += latency
		if o == overlaynet.DeliveredDegraded {
			rec.winDegraded++
			rec.tot.Degraded++
		}
		rec.event(t, "query", h)
		return
	}
	rec.winFails++
	rec.tot.Failures++
	switch o {
	case overlaynet.TimedOut:
		rec.winTimeouts++
		rec.tot.Timeouts++
	case overlaynet.Unroutable:
		rec.winUnroutbl++
		rec.tot.Unroutable++
	}
	rec.event(t, "query", -1)
}

// closeWindow summarises the current accumulators into one point per
// series, stamped at t, and resets them.
func (rec *recorder) closeWindow(e *Engine, t float64) {
	mean, p50, p95, p99 := 0.0, 0.0, 0.0, 0.0
	if len(rec.winHops) > 0 {
		// One sorted copy in reusable scratch serves all three quantiles
		// (metrics.Percentile would copy and sort per call).
		mean = metrics.Mean(rec.winHops)
		rec.sorted = append(rec.sorted[:0], rec.winHops...)
		sort.Float64s(rec.sorted)
		p50 = metrics.PercentileSorted(rec.sorted, 0.50)
		p95 = metrics.PercentileSorted(rec.sorted, 0.95)
		p99 = metrics.PercentileSorted(rec.sorted, 0.99)
	}
	failRate, timeoutRate := 0.0, 0.0
	if rec.winQueries > 0 {
		failRate = float64(rec.winFails) / float64(rec.winQueries)
		timeoutRate = float64(rec.winTimeouts) / float64(rec.winQueries)
	}
	var dMaint, dTotal int64
	if rec.metered {
		total, maint := e.msgr.Messages()
		dMaint = maint - rec.lastMaint
		dTotal = total - rec.lastTotal
		rec.lastTotal, rec.lastMaint = total, maint
	}
	perOp := 0.0
	if ops := rec.winJoins + rec.winLeaves; ops > 0 {
		perOp = float64(dMaint) / float64(ops)
	}
	degRate, unrRate, retPerQ := 0.0, 0.0, 0.0
	if rec.winQueries > 0 {
		degRate = float64(rec.winDegraded) / float64(rec.winQueries)
		unrRate = float64(rec.winUnroutbl) / float64(rec.winQueries)
		retPerQ = float64(rec.winRetries) / float64(rec.winQueries)
	}
	lp50, lp95, lp99 := 0.0, 0.0, 0.0
	if len(rec.winLats) > 0 {
		rec.sorted = append(rec.sorted[:0], rec.winLats...)
		sort.Float64s(rec.sorted)
		lp50 = metrics.PercentileSorted(rec.sorted, 0.50)
		lp95 = metrics.PercentileSorted(rec.sorted, 0.95)
		lp99 = metrics.PercentileSorted(rec.sorted, 0.99)
	}
	storeOps, lossRate, scanOK, backlog, moved := 0.0, 0.0, 0.0, 0.0, 0.0
	if ss := e.store; ss != nil {
		storeOps = float64(ss.winOps)
		if ss.winChecks > 0 {
			lossRate = float64(ss.winLost) / float64(ss.winChecks)
		}
		scanOK = 1
		if ss.winScans > 0 {
			scanOK = float64(ss.winScanOK) / float64(ss.winScans)
		}
		backlog = float64(ss.st.Backlog())
		b := ss.st.Stats().BytesMoved
		moved = float64(b - ss.lastBytes)
		ss.lastBytes = b
		ss.winOps, ss.winChecks, ss.winLost = 0, 0, 0
		ss.winScans, ss.winScanOK = 0, 0
	}

	for i, v := range []float64{
		mean, p50, p95, p99, failRate, timeoutRate,
		float64(rec.winQueries), float64(rec.winJoins), float64(rec.winLeaves),
		float64(e.ov.N()), float64(e.sinceMaint), float64(dMaint), float64(dTotal), perOp,
		degRate, unrRate, lp50, lp95, lp99, retPerQ,
		storeOps, lossRate, scanOK, backlog, moved,
	} {
		rec.series[i].Add(t, v)
	}

	rec.winHops = rec.winHops[:0]
	rec.winLats = rec.winLats[:0]
	rec.winQueries, rec.winFails, rec.winTimeouts = 0, 0, 0
	rec.winJoins, rec.winLeaves = 0, 0
	rec.winDegraded, rec.winUnroutbl, rec.winRetries = 0, 0, 0
}

// report closes any trailing partial window — stamped at the engine's
// final clock, which trails sc.Duration when the run stopped early on
// error or cancellation — and assembles the Report.
func (rec *recorder) report(e *Engine) *Report {
	if rec.winQueries > 0 || rec.winJoins+rec.winLeaves > 0 ||
		(e.store != nil && e.store.winOps > 0) {
		rec.closeWindow(e, e.now)
	}
	rec.tot.FinalNodes = e.ov.N()
	if rec.metered {
		total, maint := e.msgr.Messages()
		rec.tot.TotalMessages = total - rec.startTotal
		rec.tot.MaintMessages = maint - rec.startMaint
	}
	if e.store != nil {
		rec.tot.Store = e.store.totals()
	}
	return &Report{
		Scenario:  rec.sc.Name,
		Overlay:   rec.overlay,
		Seed:      rec.sc.Seed,
		Duration:  rec.sc.Duration,
		Window:    rec.sc.Window,
		Totals:    rec.tot,
		Series:    rec.series[:],
		Trace:     rec.trace,
		Robust:    rec.robust,
		Hops:      rec.all,
		Latencies: rec.allLats,
	}
}
