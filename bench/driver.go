package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smallworld/overlaynet"
	"smallworld/xrand"
)

// config is one benchmark invocation's settings.
type config struct {
	seed     uint64
	seconds  time.Duration // timed window
	warmup   time.Duration
	short    bool   // tiny populations, for the smoke test
	trace    bool   // traced run: per-layer metrics instead of end-to-end
	traceOut string // Chrome trace path (traced run)
	corrupt  bool   // test hook: falsify one sampled result before checking it
}

// result is what one workload run reports.
type result struct {
	workload  string
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]float64
	notes     []string // extra human-readable lines
}

// checkEvery is the deterministic correctness sample: request i of a
// worker is checked when i%checkEvery == 0.
const checkEvery = 64

// run is the state of one workload run: the timed-window clock, the
// tracer (nil in an untraced run), counters, and the result.
type run struct {
	cfg config
	tr  *tracer
	res *result
	c   counts

	phase    atomic.Int32           // 0 warm-up, 1 timed, 2 stopped
	winStart int64                  // written before phase becomes 1
	winEnd   int64                  // written before phase becomes 2
	slices   [2]int64               // traced run: window time with tracing off / on
	gate     *gate                  // pauses the load for calibration slices
	cal      map[string][]calSample // untraced run: calibration slices, by part
	calTime  int64                  // ns of the window spent calibrating
	churnCal string                 // the part that timed the churn metrics

	mu        sync.Mutex // guards res.problems
	attempted atomic.Int64
	failed    atomic.Int64
}

// counts are per-request layer counters, kept while tracing is on.
type counts struct {
	routes, hops, retries atomic.Int64
	outcomes              [4]atomic.Int64 // by overlaynet.Outcome
	netSends, netLost     atomic.Int64
	netUnreachable        atomic.Int64
	frames, frameBytes    atomic.Int64
	crossings             atomic.Int64
	shardLoad             [maxShards]atomic.Int64
	storeOps, storeHops   atomic.Int64
	scans, scanKVs        atomic.Int64
	scanCells             atomic.Int64
}

const maxShards = 16

func newRun(name string, cfg config) *run {
	r := &run{cfg: cfg, res: &result{workload: name, metrics: make(map[string]float64)},
		gate: newGate(), cal: make(map[string][]calSample)}
	if cfg.trace {
		r.tr = newTracer()
	} else {
		refGraphOnce() // built before set-up, so its heap is not counted
	}
	return r
}

// stream derives a deterministic random stream for one input of the
// workload from the seed, so the same seed always yields the same keys,
// query sources and targets, op mixes and churn schedules.
func (r *run) stream(purpose string, i int) *xrand.Stream {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d", r.res.workload, purpose, i)
	return xrand.New(r.cfg.seed*0x9e3779b97f4a7c15 ^ h.Sum64())
}

func (r *run) set(name string, v float64) { r.res.metrics[name] = v }

// problem records a correctness violation.
func (r *run) problem(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.res.problems) < 10 {
		r.res.problems = append(r.res.problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// setup builds the system under test reps times and keeps the last
// build. setup_s is the median build time; heap_bytes_per_node is the
// live heap the kept build adds, after a GC, divided by n.
func setup[T any](r *run, reps, n int, build func() (T, error), teardown func(T)) (T, error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := float64(ms.HeapAlloc)
	var cur T
	have := false
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if have {
			teardown(cur)
			var zero T
			cur, have = zero, false
			runtime.GC()
		}
		r.calibrateInto(phaseSetup)
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return cur, err
		}
		times = append(times, time.Since(t0).Seconds())
		cur, have = v, true
	}
	r.calibrateInto(phaseSetup)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	_, med, _ := quartiles(times)
	r.set("setup_s", med)
	r.set("heap_bytes_per_node", (float64(ms.HeapAlloc)-base)/float64(n))
	return cur, nil
}

// worker is one closed-loop load thread.
type worker struct {
	id        int
	r         *run
	rng       *xrand.Stream
	i         uint64 // requests issued, including this one
	timed     bool   // this request started inside the timed window
	on        bool   // tracing was on when this request started
	sampled   bool   // this request is traced
	ops       int64  // timed requests
	paused    int64  // ns of correctness checking inside the window
	onOps     [2]int64
	hops      int64 // overlay hops of timed point lookups
	lookups   int64 // timed point lookups
	corrupted bool  // the test hook has falsified a result
	lat       hist
	kinds     [3]hist // per store op kind
}

// next starts request w.i+1.
func (w *worker) next() {
	w.i++
	w.timed = w.r.phase.Load() == 1
	w.on = w.r.tr != nil && w.r.tr.on.Load()
	w.sampled = w.on && w.i%sampleEvery == 0
	if w.timed {
		w.ops++
		if w.on {
			w.onOps[1]++
		} else {
			w.onOps[0]++
		}
		w.r.attempted.Add(1)
	}
}

// done records the request's latency (from t0) under kind.
func (w *worker) done(kind int, t0 int64) {
	if !w.timed {
		return
	}
	d := now() - t0
	w.lat.add(d)
	w.kinds[kind].add(d)
}

// lookup records the overlay hops of a point lookup.
func (w *worker) lookup(hops int) {
	if w.timed {
		w.hops += int64(hops)
		w.lookups++
	}
}

// checked reports whether this request is in the correctness sample.
func (w *worker) checked() bool { return w.i%checkEvery == 0 }

// resume ends a correctness check that began at mark (a now() value),
// excluding its time from the worker's share of the timed window.
func (w *worker) resume(mark int64) {
	if w.timed {
		w.paused += now() - mark
	}
}

// loop runs op on the given number of closed-loop workers through the
// warm-up and the timed window, then reports ops_per_s, op_p50_us,
// op_p99_us and hops_mean (or, in a traced run, the tracing overhead).
func (r *run) loop(workers int, op func(w *worker)) []*worker {
	ws := make([]*worker, workers)
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = &worker{id: i, r: r, rng: r.stream("worker", i)}
		p := r.gate.join()
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for r.phase.Load() < 2 {
				r.gate.enter(p)
				w.next()
				op(w)
				r.gate.exit(p)
			}
		}(ws[i])
	}
	r.drive()
	wg.Wait()

	window := r.winEnd - r.winStart - r.calTime
	var qps float64
	var all hist
	var ops, hops, lookups int64
	var onOps [2]int64
	for _, w := range ws {
		if active := window - w.paused; active > 0 {
			qps += float64(w.ops) / (float64(active) / 1e9)
		}
		all.merge(&w.lat)
		ops += w.ops
		hops += w.hops
		lookups += w.lookups
		onOps[0] += w.onOps[0]
		onOps[1] += w.onOps[1]
	}
	r.set("ops_per_s", qps)
	r.set("op_p50_us", all.quantile(0.5)/1e3)
	r.set("op_mean_us", all.mean()/1e3)
	r.set("hops_mean", ratio(hops, lookups))
	r.res.notes = append(r.res.notes, fmt.Sprintf("timed requests %d over %.2f s; raw p99 %.4f us (at q=%.4f)",
		ops, float64(window)/1e9, all.tail(0.99)/1e3, tailQuantile(0.99, all.n)))
	if r.tr != nil && r.slices[0] > 0 && r.slices[1] > 0 && onOps[0] > 0 {
		off := float64(onOps[0]) / float64(r.slices[0])
		on := float64(onOps[1]) / float64(r.slices[1])
		r.set("bench.trace_overhead_frac", 1-on/off)
	}
	return ws
}

// traceSlice is how long the traced run keeps tracing on or off before
// switching, so traced and untraced throughput are measured under the
// same conditions.
const traceSlice = 250 * time.Millisecond

// drive sleeps through the warm-up, opens the timed window and closes
// it after cfg.seconds of load. An untraced run pauses the load for a
// calibration slice after every calEvery of it. A traced run instead
// alternates tracing off and on in traceSlice steps, accumulating each
// state's share of the window.
func (r *run) drive() {
	time.Sleep(r.cfg.warmup)
	r.winStart = now()
	r.phase.Store(1)
	if r.tr == nil {
		for left := r.cfg.seconds; ; left -= calEvery {
			time.Sleep(min(left, calEvery))
			if left <= calEvery {
				break
			}
			r.gate.pause()
			t := now()
			r.calibrateInto(phaseWindow)
			r.calTime += now() - t
			r.gate.resume()
		}
	} else {
		on := false
		last := r.winStart
		for end := r.winStart + int64(r.cfg.seconds); last < end; {
			time.Sleep(time.Duration(min(int64(traceSlice), end-last)))
			t := now()
			state := 0
			if on {
				state = 1
			}
			r.slices[state] += t - last
			last = t
			on = !on
			r.tr.on.Store(on)
		}
		r.tr.on.Store(false)
	}
	r.winEnd = now()
	r.phase.Store(2)
}

// churner applies membership events to a publisher and times them.
type churner struct {
	r   *run
	pub *overlaynet.Publisher
	rng *xrand.Stream

	total   int64 // events applied, warm-up included
	svc     hist  // service time of Join/Leave, timed-window events
	late    hist  // start minus due time, timed-window events
	offered int64
	done    int64
	epochs  uint64 // epochs published during the timed window

	// span is the open churn span while a traced event runs, -1
	// otherwise; the ownership watcher parents its handover spans to it.
	span int32
	req  uint64
}

func newChurner(r *run, pub *overlaynet.Publisher) *churner {
	return &churner{r: r, pub: pub, rng: r.stream("churn", 0), span: -1}
}

// churnReq tags churn spans' request ids apart from lookups and store ops.
const churnReq = 1 << 62

// event applies one join or leave and returns its service time.
func (c *churner) event(join bool) int64 {
	ctx := context.Background()
	victim := 0
	if !join {
		victim = c.rng.Intn(c.pub.LiveN())
	}
	tr := c.r.tr
	traced := tr != nil && tr.on.Load()
	e0 := c.pub.Epoch()
	if traced {
		c.req++
		c.span = tr.begin(churnReq|c.req, -1, kChurn, tidChurn)
	}
	t0 := now()
	var err error
	if join {
		err = c.pub.Join(ctx)
	} else {
		err = c.pub.Leave(ctx, victim)
	}
	d := now() - t0
	c.total++
	if traced {
		var flag uint8
		if c.pub.Epoch() != e0 {
			flag = flagPublish
		}
		tr.endWith(c.span, flag, 0)
		c.span = -1
	}
	if err != nil {
		c.r.problem("membership event (join=%v): %v", join, err)
	}
	return d
}

// openLoop runs a Poisson churn schedule at rate events/s, alternating
// joins and leaves, until the window closes. Events are timed from
// their start; how late the generator started each one is kept apart.
// A calibration slice shifts the rest of the schedule by its length, so
// the load on either side of it is unchanged. It returns a function that
// waits for the generator to stop.
func (c *churner) openLoop(rate float64) (wait func()) {
	r := c.r
	done := make(chan struct{})
	sched := c.r.stream("churn-schedule", 0)
	p := r.gate.join()
	r.churnCal = phaseWindow
	go func() {
		defer close(done)
		due := now()
		join := true
		var e0 uint64
		counting := false
		for {
			due += int64(sched.ExpFloat64() / rate * 1e9)
			if d := due - now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			ph := r.phase.Load()
			if ph == 2 {
				break
			}
			if ph == 1 && !counting {
				counting, e0 = true, c.pub.Epoch()
			}
			due += r.gate.enter(p)
			start := now()
			svc := c.event(join)
			r.gate.exit(p)
			join = !join
			if ph == 1 && due >= r.winStart {
				c.svc.add(svc)
				c.late.add(start - due)
				c.offered++
				c.done++
			}
		}
		if counting {
			c.epochs = c.pub.Epoch() - e0
		}
		// Events that fell due inside the window but never started.
		for ; due < r.winEnd; due += int64(sched.ExpFloat64() / rate * 1e9) {
			if due >= r.winStart {
				c.offered++
			}
		}
	}()
	return func() { <-done }
}

// probeChunk is how many probe events run between calibration slices.
const probeChunk = 128

// probe applies alternating joins and leaves back to back and records
// their service times, with tracing on in a traced run. A short run
// applies 64.
func (c *churner) probe(events int) {
	r := c.r
	if r.cfg.short {
		events = 64
	}
	r.churnCal = phaseProbe
	if r.tr != nil {
		r.tr.on.Store(true)
		defer r.tr.on.Store(false)
	}
	for i := 0; i < events; i++ {
		if i%probeChunk == 0 {
			r.calibrateInto(phaseProbe)
		}
		c.svc.add(c.event(i%2 == 0))
	}
	r.calibrateInto(phaseProbe)
}

// report sets the churn metrics.
func (c *churner) report() {
	r := c.r
	r.set("churn_mean_us", c.svc.mean()/1e3)
	r.set("bench.churn_late_us_p99", c.late.tail(0.99)/1e3)
	if c.offered > 0 {
		r.set("bench.churn_done_over_offered", float64(c.done)/float64(c.offered))
	}
	if w := r.winEnd - r.winStart - r.calTime; w > 0 {
		r.set("overlaynet.epochs_per_s", float64(c.epochs)/(float64(w)/1e9))
	}
	r.res.notes = append(r.res.notes, fmt.Sprintf("membership events timed %d; raw p50 %.4f us, p99 %.4f us (at q=%.4f)",
		c.svc.n, c.svc.quantile(0.5)/1e3, c.svc.tail(0.99)/1e3, tailQuantile(0.99, c.svc.n)))
}

// Chrome trace thread ids.
const (
	tidChurn  = 1000
	tidShard  = 2000 // + shard address
	tidClient = 3000 // + client index
)

// graphMetrics sets the adjacency-size metrics of a snapshot.
func (r *run) graphMetrics(s *overlaynet.Snapshot) {
	csr := s.CSR()
	n := float64(csr.N())
	r.set("graph.csr_bytes_per_node", 4*(n+1+float64(csr.M()))/n)
	r.set("graph.edges_per_node", float64(csr.M())/n)
}
