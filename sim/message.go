package sim

import (
	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/obs"
	"smallworld/overlaynet"
)

// This file is the engine's message plane: when a scenario configures
// Faults, every query becomes a flight — a sequence of evHop events,
// each one send attempt over the netmodel plane — instead of an
// instantaneous Route call. A flight drives an overlaynet.RobustWalk,
// the same retry state machine RobustRouter steps synchronously, one
// event at a time: link latencies, timeouts and backoff waits advance
// the virtual clock and interleave with churn, so a node can depart
// while a query sits on it.
//
// Flights pin nodes by identifier, not slot: the overlay's leave path
// renames slots, so the flight plane re-locates the holder and every
// candidate by key before acting on it. A flight whose holder departs
// mid-flight is lost — the initiator only learns by timing out.

// flight is one query in flight. Flights live in a free-listed slice
// on the Engine; the walk's candidate scratch is reused across queries.
type flight struct {
	walk   overlaynet.RobustWalk
	start  float64 // virtual time the query was issued
	active bool

	// Storage payload: when op != opNone the flight carries one store
	// operation, executed on arrival by storeState.completeFlight.
	op     uint8
	opKey  keyspace.Key
	opSpan float64

	// tr is this query's sampled trace, nil for the unsampled majority.
	// Spans are recorded in virtual time; finishFlight returns it.
	tr *obs.Trace
}

// allocFlight returns a free flight slot, reusing finished ones.
func (e *Engine) allocFlight() int {
	if n := len(e.freeFl); n > 0 {
		fi := e.freeFl[n-1]
		e.freeFl = e.freeFl[:n-1]
		return fi
	}
	e.flights = append(e.flights, flight{})
	return len(e.flights) - 1
}

// startFlight launches one query as a message flight and runs its
// first step synchronously (building candidates and sending the first
// hop costs no virtual time).
func (e *Engine) startFlight(src int, target keyspace.Key) {
	e.startFlightOp(src, target, opNone, 0)
}

// startFlightOp is startFlight carrying a storage operation: the
// flight routes toward the op's locate key and the op executes when
// the flight arrives.
func (e *Engine) startFlightOp(src int, target keyspace.Key, op uint8, opSpan float64) {
	if e.model.Dead(e.ov.Key(src)) {
		// A crashed node originates nothing. Redraw a live source a few
		// times so load keeps flowing; the extra draws only happen under
		// a fault plane with crashed nodes, where they are part of the
		// replay format.
		live := false
		for tries := 0; tries < 8; tries++ {
			src = e.loadRNG.Intn(e.ov.N())
			if !e.model.Dead(e.ov.Key(src)) {
				live = true
				break
			}
		}
		if !live {
			return // population saturated with crashed nodes; no query
		}
	}
	fi := e.allocFlight()
	f := &e.flights[fi]
	*f = flight{walk: f.walk, start: e.now, active: true, op: op, opKey: target, opSpan: opSpan}
	f.walk.Begin(e.topo, target, e.sc.Retry, src, e.ov.Key(src))
	f.tr = e.obsSampler.Start(flightOpName(op), src, float64(target), e.now)
	e.stepFlight(fi)
}

// stepFlight advances one flight by one step of its walk. Exactly one
// evHop continuation is scheduled per step unless the flight finishes,
// so a flight never has two pending events.
func (e *Engine) stepFlight(fi int) {
	f := &e.flights[fi]
	if !f.active || e.err != nil {
		return
	}
	wait, backoff, done := f.walk.Step((*flightPlane)(e), e.faultRNG, e.now, f.tr)
	wait += backoff
	if done {
		e.finishFlight(fi, wait)
		return
	}
	e.push(event{at: e.now + wait, kind: evHop, proc: fi})
}

// finishFlight records the flight's outcome — end-to-end wall latency
// is start-to-now plus any terminal timeout still being waited out —
// and returns its slot to the free list.
func (e *Engine) finishFlight(fi int, extra float64) {
	f := &e.flights[fi]
	res := f.walk.Result(e.now - f.start + extra)
	o, hops := res.Outcome, res.Hops
	if f.op != opNone && e.store != nil {
		o, hops = e.store.completeFlight(f, o, hops)
	}
	e.rec.queryRobust(e.now, o, hops, res.Retries, res.Latency)
	if e.obsReg != nil || f.tr != nil {
		e.observeFlight(f, o, hops, res.Retries, res.Latency)
	}
	f.active = false
	e.freeFl = append(e.freeFl, fi)
}

// flightPlane is the overlaynet.RobustPlane flights lend their walks:
// the live Dynamic overlay, with slots re-pinned by identifier, and the
// scenario's netmodel fault plane.
type flightPlane Engine

func (p *flightPlane) N() int                  { return p.ov.N() }
func (p *flightPlane) Key(u int) keyspace.Key  { return p.ov.Key(u) }
func (p *flightPlane) Neighbors(u int) []int32 { return p.ov.Neighbors(u) }

// Locate re-pins a slot: churn renames slots, identifiers persist.
func (p *flightPlane) Locate(slot int, key keyspace.Key) (int, bool) {
	if slot < p.ov.N() && p.ov.Key(slot) == key {
		return slot, true
	}
	for u, k := range (*Engine)(p).slotKeys() {
		if k == key {
			return u, true
		}
	}
	return -1, false
}

// Offer passes every out-neighbour: flights learn about dead peers only
// by timing out on them.
func (p *flightPlane) Offer(w *overlaynet.RobustWalk, u int) {
	for j, v := range p.ov.Neighbors(u) {
		w.Consider(v, int32(j), p.ov.Key(int(v)))
	}
}

// Send re-pins the candidate first: one that departed since selection
// stays unreachable without a send.
func (p *flightPlane) Send(_ int, fromKey keyspace.Key, c *overlaynet.RobustCandidate) netmodel.Delivery {
	u, ok := p.Locate(int(c.Slot), c.Key)
	if !ok {
		return netmodel.Delivery{Status: netmodel.SendUnreachable}
	}
	c.Slot = int32(u)
	return p.model.Send(fromKey, c.Key)
}

func (p *flightPlane) Misroute(k keyspace.Key) bool { return p.model.Misroute(k) }

// Nearest scans the whole population; live means not crashed on the
// fault plane.
func (p *flightPlane) Nearest(target keyspace.Key, live bool) float64 {
	best := -1.0
	for _, k := range (*Engine)(p).slotKeys() {
		if d := p.topo.Distance(k, target); (best < 0 || d < best) && !(live && p.model.Dead(k)) {
			best = d
		}
	}
	return best
}
