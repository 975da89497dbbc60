package sim

import (
	"context"
	"slices"

	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/obs"
	"smallworld/overlaynet"
	"smallworld/xrand"
)

// eventKind discriminates the engine's internal event types.
type eventKind uint8

const (
	evArrival eventKind = iota // an arrival process fires
	evQuery                    // the load generator routes one lookup
	evWindow                   // a metrics window closes
	evSession                  // a scheduled session departure
	evHop                      // an in-flight message advances (proc = flight index)
	evSweep                    // the store's anti-entropy sweep fires
)

// event is one entry of the virtual-time queue. Events are small values
// so the queue is a flat slice with no per-event allocation.
type event struct {
	at   float64
	seq  uint64 // tie-break: equal times fire in scheduling order
	kind eventKind
	proc int          // arrival index, for evArrival
	key  keyspace.Key // departing identifier, for evSession
}

// eventQueue is a binary min-heap on (at, seq). The manual
// implementation (rather than container/heap) keeps the hot loop free
// of interface conversions and allocations.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	*q = h
	return top
}

// Engine is the running simulation state. Arrival implementations
// receive it in Fire and mutate membership through its exported
// methods; everything else is internal to Run.
type Engine struct {
	sc  Scenario
	ov  overlaynet.Dynamic
	ctx context.Context

	now   float64
	seq   uint64
	queue eventQueue

	rng     *xrand.Stream   // engine-internal draws (departure victims)
	loadRNG *xrand.Stream   // query sources and targets
	arrRNG  []*xrand.Stream // one independent stream per arrival process

	// Routers are invalidated by every membership change (the Dynamic
	// contract); epoch counts changes, and the cached router and the
	// identifiers by slot the flights scan (a Dynamic's Keys may copy)
	// are rebuilt lazily on the next read after the epochs diverge.
	router      overlaynet.Router
	routerEpoch uint64
	epoch       uint64
	keys        []keyspace.Key
	keysEpoch   uint64

	msgr overlaynet.Messenger  // nil when the overlay does not meter traffic
	mnt  overlaynet.Maintainer // nil when the overlay has no maintenance round

	sinceMaint int // membership events since the last maintenance round

	// Fault-plane state, set only when the scenario configures Faults.
	// The model and faultRNG are seeded from FaultSeed, never split
	// from the master chain above — adding faults must not shift the
	// legacy stream assignment.
	model    *netmodel.Model
	faultRNG *xrand.Stream // backoff jitter, byzantine detour picks
	topo     keyspace.Topology
	flights  []flight
	freeFl   []int // free-listed flight slots

	// Storage workload, set only when the scenario configures Store.
	// The snapshot is the store's membership view, memoised per epoch.
	store     *storeState
	snap      *overlaynet.Snapshot
	snapEpoch uint64

	// Observability, set only when the scenario carries a registry or
	// tracer (sim/obs.go). The loop is single-goroutine, so one counter
	// hint and one trace sampler serve the whole run.
	obsReg     *obs.Registry
	obsHint    obs.Hint
	obsTracer  *obs.Tracer
	obsSampler obs.Sampler

	rec *recorder
	err error
}

// Salts deriving the fault-side seeds from the scenario seed. Part of
// the replay format, like netmodel's class salts.
const (
	faultSeedSalt = 0x9e3779b97f4a7c15 // FaultSeed when the scenario leaves it 0
	faultRNGSalt  = 0x7f4a7c159e3779b9 // engine fault draws vs the model's own stream
)

// newEngine splits the scenario seed into the engine, load and
// per-arrival streams — in that fixed order, so the stream assignment
// is part of the replay format.
func newEngine(ctx context.Context, ov overlaynet.Dynamic, sc Scenario) *Engine {
	master := xrand.New(sc.Seed)
	e := &Engine{
		sc:      sc,
		ov:      ov,
		ctx:     ctx,
		rng:     master.Split(),
		loadRNG: master.Split(),
		queue:   make(eventQueue, 0, 64),
		rec:     newRecorder(sc, ov),
	}
	e.arrRNG = make([]*xrand.Stream, len(sc.Arrivals))
	for i := range sc.Arrivals {
		e.arrRNG[i] = master.Split()
	}
	e.bindObs()
	e.msgr, _ = ov.(overlaynet.Messenger)
	e.mnt, _ = ov.(overlaynet.Maintainer)
	if e.msgr != nil {
		total, maint := e.msgr.Messages()
		e.rec.baseMsgs(total, maint)
	}
	if sc.Faults != nil {
		fseed := sc.FaultSeed
		if fseed == 0 {
			fseed = sc.Seed ^ faultSeedSalt
		}
		m, err := netmodel.New(*sc.Faults, fseed)
		if err != nil {
			e.err = err
			return e
		}
		e.model = m
		m.SetObs(sc.Obs)
		e.faultRNG = xrand.New(fseed ^ faultRNGSalt)
		e.topo = keyspace.Ring
		if th, ok := ov.(interface{ Topology() keyspace.Topology }); ok {
			e.topo = th.Topology()
		}
	}
	if sc.Store != nil && e.err == nil {
		e.initStore()
	}
	return e
}

// bootstrap seeds the queue: every arrival's first firing, the first
// query, and the first window edge.
func (e *Engine) bootstrap() {
	for i, a := range e.sc.Arrivals {
		if at := a.Start(e.arrRNG[i]); at >= 0 {
			e.push(event{at: at, kind: evArrival, proc: i})
		}
	}
	if e.sc.Load.Rate > 0 {
		e.push(event{at: e.loadRNG.ExpFloat64() / e.sc.Load.Rate, kind: evQuery})
	}
	e.push(event{at: e.sc.Window, kind: evWindow})
	if e.store != nil {
		e.push(event{at: e.sc.Window, kind: evSweep})
	}
}

func (e *Engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	e.queue.push(ev)
}

func (e *Engine) dispatch(ev event) {
	switch ev.kind {
	case evArrival:
		a := e.sc.Arrivals[ev.proc]
		if next := a.Fire(e, e.arrRNG[ev.proc]); next >= 0 && e.err == nil {
			e.push(event{at: next, kind: evArrival, proc: ev.proc})
		}
	case evQuery:
		e.runQuery()
		if e.sc.Load.Rate > 0 {
			e.push(event{at: e.now + e.loadRNG.ExpFloat64()/e.sc.Load.Rate, kind: evQuery})
		}
	case evWindow:
		if e.obsReg != nil {
			e.observeWindow()
		}
		e.rec.closeWindow(e, e.now)
		if next := e.now + e.sc.Window; next <= e.sc.Duration {
			e.push(event{at: next, kind: evWindow})
		}
	case evHop:
		e.stepFlight(ev.proc)
	case evSweep:
		if e.store != nil && e.err == nil {
			e.store.st.Sweep()
			if next := e.now + e.sc.Window; next <= e.sc.Duration {
				e.push(event{at: next, kind: evSweep})
			}
		}
	case evSession:
		switch {
		case e.err != nil:
		case e.ov.N() <= e.sc.MinNodes:
			e.rec.rejected()
		case !e.LeaveKey(ev.key):
			// The identifier is gone — the node already departed through
			// other churn, or the overlay (rebuild wrapper) resampled its
			// keys. Recorded so under-counted departures are visible.
			e.rec.sessionMiss()
		}
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// N returns the overlay's current population.
func (e *Engine) N() int { return e.ov.N() }

// Join adds one peer by the overlay's join protocol. It reports false
// when the join failed.
func (e *Engine) Join() bool {
	_, ok := e.JoinSession()
	return ok
}

// JoinSession is Join plus the identifier of the node the join created,
// for arrivals that schedule the same node's departure later. The
// identifier is read from the highest node index, which is where every
// append-ordered Dynamic overlay (the Section 4.2 protocol) places the
// newcomer; for rebuild overlays it is an arbitrary representative of
// the enlarged population, which approximates session semantics.
func (e *Engine) JoinSession() (keyspace.Key, bool) {
	if e.err != nil {
		return 0, false
	}
	if err := e.ov.Join(e.ctx); err != nil {
		e.fail(err)
		return 0, false
	}
	e.membershipChanged()
	e.rec.join(e.now)
	return e.ov.Key(e.ov.N() - 1), true
}

// LeaveRandom removes one uniformly random node. It reports false when
// the departure was rejected (population floor) or failed.
func (e *Engine) LeaveRandom() bool {
	if e.err != nil {
		return false
	}
	n := e.ov.N()
	if n <= e.sc.MinNodes {
		e.rec.rejected()
		return false
	}
	return e.leave(e.rng.Intn(n))
}

// LeaveKey removes the node currently holding identifier k. It reports
// false when no node holds k any more (the session already ended
// through other churn) or the population floor rejects the departure.
func (e *Engine) LeaveKey(k keyspace.Key) bool {
	if e.err != nil {
		return false
	}
	if e.ov.N() <= e.sc.MinNodes {
		e.rec.rejected()
		return false
	}
	for u := range e.ov.N() {
		if e.ov.Key(u) == k {
			return e.leave(u)
		}
	}
	return false
}

func (e *Engine) leave(u int) bool {
	if err := e.ov.Leave(e.ctx, u); err != nil {
		e.fail(err)
		return false
	}
	e.membershipChanged()
	e.rec.leave(e.now)
	return true
}

// ScheduleSessionEnd enqueues the departure of the node holding k after
// the given virtual-time delay.
func (e *Engine) ScheduleSessionEnd(k keyspace.Key, after float64) {
	if after < 0 {
		after = 0
	}
	e.push(event{at: e.now + after, kind: evSession, key: k})
}

// Maintain runs one maintenance round when the overlay supports it
// (overlaynet.Maintainer) and resets the staleness clock. It reports
// whether a round actually ran.
func (e *Engine) Maintain() bool {
	if e.mnt == nil || e.err != nil {
		return false
	}
	if err := e.mnt.Maintain(e.ctx); err != nil {
		e.fail(err)
		return false
	}
	e.sinceMaint = 0
	e.epoch++ // neighbour sets changed; routers must be rebuilt
	e.rec.maintain(e.now)
	return true
}

// membershipChanged invalidates cached routers and advances the
// staleness clock. The storage workload hands data over here: every
// join/leave the engine observes drains its pending ownership events
// (or snapshot-diffs) before the next operation runs.
func (e *Engine) membershipChanged() {
	e.epoch++
	e.sinceMaint++
	if e.store != nil {
		e.store.membership()
	}
}

// slotKeys returns the overlay's identifiers by slot.
func (e *Engine) slotKeys() []keyspace.Key {
	if n := e.ov.N(); e.keys == nil || e.keysEpoch != e.epoch {
		e.keys, e.keysEpoch = slices.Grow(e.keys[:0], n)[:n], e.epoch
		for u := range e.keys {
			e.keys[u] = e.ov.Key(u)
		}
	}
	return e.keys
}

// fail records the first hard error; context cancellation wins so Run
// reports it verbatim.
func (e *Engine) fail(err error) {
	if ctxErr := e.ctx.Err(); ctxErr != nil {
		err = ctxErr
	}
	if e.err == nil {
		e.err = err
	}
}

// runQuery routes one lookup from a uniformly random live source to a
// target drawn by the load generator. Under a fault plane the lookup
// becomes a message flight advanced by evHop events instead of an
// instantaneous route; the load draws happen in the same order either
// way, so the loadRNG consumption per query is part of the replay
// format, not of the fault configuration.
func (e *Engine) runQuery() {
	n := e.ov.N()
	if n < 2 {
		return
	}
	src := e.loadRNG.Intn(n)
	target := e.sc.Load.target(e.loadRNG)
	if e.store != nil {
		// Storage workload: the same two loadRNG draws happened in the
		// same order, so the churn/load replay format is untouched; the
		// op mix and key choice draw from the store's own stream.
		e.store.runOp(e, src, target)
		return
	}
	if e.model != nil {
		e.startFlight(src, target)
		return
	}
	if e.router == nil || e.routerEpoch != e.epoch {
		e.router = e.ov.NewRouter()
		e.routerEpoch = e.epoch
	}
	res := e.router.Route(src, target)
	e.rec.query(e.now, res)
	if e.obsReg != nil {
		e.observeQuery(res)
	}
}

// SetPartition installs a partition on the scenario's fault plane. It
// reports false when the scenario runs without faults or the partition
// is invalid (recorded as the run's error).
func (e *Engine) SetPartition(p netmodel.Partition) bool {
	if e.model == nil || e.err != nil {
		return false
	}
	if err := e.model.SetPartition(p); err != nil {
		e.fail(err)
		return false
	}
	e.rec.partition(e.now)
	return true
}

// HealPartition removes the current partition, if any.
func (e *Engine) HealPartition() bool {
	if e.model == nil || e.err != nil || !e.model.Partitioned() {
		return false
	}
	e.model.Heal()
	e.rec.heal(e.now)
	return true
}
