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
// instantaneous Route call. The per-hop discipline mirrors
// overlaynet.RobustRouter (same RobustPolicy semantics, same typed
// outcomes), re-expressed in event-driven form so link latencies,
// timeouts and backoff waits advance the virtual clock and interleave
// with churn: a node can depart while a query sits on it.
//
// Flights pin nodes by identifier, not slot: the overlay's leave path
// renames slots, so every step re-locates the holding identifier and
// every candidate carries its key. A flight whose holder departs
// mid-flight is lost — the initiator only learns by timing out.

// flight is one query in flight. Flights live in a free-listed slice
// on the Engine; candidate scratch is reused across queries.
type flight struct {
	target keyspace.Key
	start  float64 // virtual time the query was issued

	cur    int          // slot the query currently sits on (best known)
	curKey keyspace.Key // identifier of the holder, the durable name

	hops    int
	retries int

	// Candidate fan-out at the current node. candIdx < 0 means the
	// query just arrived at cur and candidates are not built yet.
	cands   []candidate
	candIdx int
	attempt int     // resends burned on the current candidate
	backoff float64 // next backoff wait for the current candidate
	sawLost bool    // a lost (vs unreachable) failure at this hop
	degrade bool    // retries, fallbacks or detours happened
	active  bool

	// Storage payload: when op != opNone the flight carries one store
	// operation, executed on arrival by storeState.completeFlight.
	op     uint8
	opKey  keyspace.Key
	opSpan float64

	// tr is this query's sampled trace, nil for the unsampled majority.
	// Spans are recorded in virtual time; finishFlight returns it.
	tr *obs.Trace
}

// candidate is one improving neighbour, identifier-pinned.
type candidate struct {
	slot int
	key  keyspace.Key
	d    float64
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
	keys := e.ov.Keys()
	if e.model.Dead(keys[src]) {
		// A crashed node originates nothing. Redraw a live source a few
		// times so load keeps flowing; the extra draws only happen under
		// a fault plane with crashed nodes, where they are part of the
		// replay format.
		live := false
		for tries := 0; tries < 8; tries++ {
			src = e.loadRNG.Intn(len(keys))
			if !e.model.Dead(keys[src]) {
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
	cands := f.cands[:0]
	*f = flight{
		target:  target,
		start:   e.now,
		cur:     src,
		curKey:  keys[src],
		cands:   cands,
		candIdx: -1,
		active:  true,
		op:      op,
		opKey:   target,
		opSpan:  opSpan,
	}
	f.tr = e.obsSampler.Start(flightOpName(op), src, float64(target), e.now)
	e.stepFlight(fi)
}

// stepFlight advances one flight by one send attempt. Exactly one
// evHop continuation is scheduled per step unless the flight finishes,
// so a flight never has two pending events.
func (e *Engine) stepFlight(fi int) {
	f := &e.flights[fi]
	if !f.active || e.err != nil {
		return
	}
	pol := e.pol
	n := e.ov.N()
	// Re-locate the holder: churn renames slots, identifiers persist.
	if f.cur >= n || e.ov.Key(f.cur) != f.curKey {
		if u := e.slotOf(f.curKey); u >= 0 {
			f.cur = u
		} else {
			// The node holding the query departed mid-flight.
			e.finishFlight(fi, overlaynet.TimedOut, 0)
			return
		}
	}
	maxHops := pol.MaxHops
	if maxHops <= 0 {
		maxHops = 4 * n
	}
	if f.hops >= maxHops || (pol.QueryTimeout > 0 && e.now-f.start >= pol.QueryTimeout) {
		e.finishFlight(fi, overlaynet.TimedOut, 0)
		return
	}
	if f.candIdx < 0 {
		// The query just arrived at f.cur: byzantine hijack first, then
		// honest candidate selection.
		if f.hops > 0 && e.model.Misroute(f.curKey) {
			e.hijackFlight(fi)
			return
		}
		e.buildFlightCands(f)
		if len(f.cands) == 0 {
			e.classifyFlightStop(fi)
			return
		}
		f.candIdx, f.attempt, f.backoff, f.sawLost = 0, 0, pol.Backoff, false
	}
	// One send attempt to the current candidate.
	c := &f.cands[f.candIdx]
	del := netmodel.Delivery{Status: netmodel.SendUnreachable}
	switch {
	case c.slot < n && e.ov.Key(c.slot) == c.key:
		del = e.model.Send(f.curKey, c.key)
	default:
		if u := e.slotOf(c.key); u >= 0 {
			c.slot = u
			del = e.model.Send(f.curKey, c.key)
		}
		// Candidate departed since selection: stays unreachable.
	}
	if del.Status == netmodel.SendOK {
		f.tr.Hop(e.now, del.Latency, int32(c.slot), f.candIdx, f.attempt, obs.SpanHop, c.d)
		f.hops++
		f.cur, f.curKey = c.slot, c.key
		f.cands = f.cands[:0]
		f.candIdx = -1
		e.push(event{at: e.now + del.Latency, kind: evHop, proc: fi})
		return
	}
	// The sender cannot tell a lost message from a dead peer: both are
	// a timeout, both are retried; only the classifier distinguishes.
	if del.Status == netmodel.SendLost {
		f.sawLost = true
	}
	wait := pol.HopTimeout
	f.tr.Hop(e.now, wait, int32(c.slot), f.candIdx, f.attempt, obs.SpanTimeout, c.d)
	if f.attempt < pol.Retries {
		f.attempt++
		f.retries++
		f.degrade = true
		wait += e.backoffWait(&f.backoff)
		e.push(event{at: e.now + wait, kind: evHop, proc: fi})
		return
	}
	// Candidate exhausted; fall back to the next-best neighbour.
	f.candIdx++
	f.attempt, f.backoff = 0, pol.Backoff
	if f.candIdx < len(f.cands) {
		f.degrade = true
		e.push(event{at: e.now + wait, kind: evHop, proc: fi})
		return
	}
	outcome := overlaynet.Unroutable
	if f.sawLost {
		outcome = overlaynet.TimedOut
	}
	e.finishFlight(fi, outcome, wait)
}

// hijackFlight executes a byzantine relay's detour: the query is
// forwarded to a uniformly random neighbour, or — when that send fails
// — vanishes, and the initiator pays its timeout.
func (e *Engine) hijackFlight(fi int) {
	f := &e.flights[fi]
	nbrs := e.ov.Neighbors(f.cur)
	if len(nbrs) > 0 {
		v := int(nbrs[e.faultRNG.Intn(len(nbrs))])
		vKey := e.ov.Key(v)
		if del := e.model.Send(f.curKey, vKey); del.Status == netmodel.SendOK {
			if f.tr != nil {
				f.tr.Hop(e.now, del.Latency, int32(v), 0, 0, obs.SpanHijack,
					e.topo.Distance(vKey, f.target))
			}
			f.hops++
			f.degrade = true
			f.cur, f.curKey = v, vKey
			f.cands = f.cands[:0]
			f.candIdx = -1
			e.push(event{at: e.now + del.Latency, kind: evHop, proc: fi})
			return
		}
	}
	e.finishFlight(fi, overlaynet.TimedOut, e.pol.HopTimeout)
}

// buildFlightCands fills f.cands with the holder's improving
// neighbours in ascending distance order, pinning each by identifier.
func (e *Engine) buildFlightCands(f *flight) {
	topo := e.topo
	dCur := topo.Distance(f.curKey, f.target)
	f.cands = f.cands[:0]
	for _, v := range e.ov.Neighbors(f.cur) {
		vKey := e.ov.Key(int(v))
		d := topo.Distance(vKey, f.target)
		if topo.Improves(f.curKey, vKey, f.target, d, dCur) {
			f.cands = append(f.cands, candidate{slot: int(v), key: vKey, d: d})
		}
	}
	// Insertion sort by distance; candidate lists are short.
	for i := 1; i < len(f.cands); i++ {
		for j := i; j > 0 && f.cands[j].d < f.cands[j-1].d; j-- {
			f.cands[j], f.cands[j-1] = f.cands[j-1], f.cands[j]
		}
	}
}

// classifyFlightStop types a flight that stopped at a live local
// minimum, mirroring RobustRouter.classifyStop: Delivered at a
// minimal-distance node, DeliveredDegraded at the closest *live* node
// (the responsible node is crashed), Unroutable otherwise.
func (e *Engine) classifyFlightStop(fi int) {
	f := &e.flights[fi]
	topo := e.topo
	dCur := topo.Distance(f.curKey, f.target)
	bestAll := topo.MaxDistance() + 1
	bestLive := bestAll
	for _, k := range e.ov.Keys() {
		d := topo.Distance(k, f.target)
		if d < bestAll {
			bestAll = d
		}
		if d < bestLive && !e.model.Dead(k) {
			bestLive = d
		}
	}
	switch {
	case dCur <= bestAll && !f.degrade:
		e.finishFlight(fi, overlaynet.Delivered, 0)
	case dCur <= bestAll || dCur <= bestLive:
		e.finishFlight(fi, overlaynet.DeliveredDegraded, 0)
	default:
		e.finishFlight(fi, overlaynet.Unroutable, 0)
	}
}

// finishFlight records the flight's outcome — end-to-end wall latency
// is issue-to-now plus any terminal timeout still being waited out —
// and returns its slot to the free list.
func (e *Engine) finishFlight(fi int, o overlaynet.Outcome, extra float64) {
	f := &e.flights[fi]
	hops := f.hops
	if f.op != opNone && e.store != nil {
		o, hops = e.store.completeFlight(f, o)
	}
	lat := e.now - f.start + extra
	e.rec.queryRobust(e.now, o, hops, f.retries, lat)
	if e.obsReg != nil || f.tr != nil {
		e.observeFlight(f, o, hops, lat)
	}
	f.active = false
	e.freeFl = append(e.freeFl, fi)
}

// backoffWait returns the next backoff wait (jittered from faultRNG)
// and doubles the base for the following one.
func (e *Engine) backoffWait(base *float64) float64 {
	w := *base
	*base *= 2
	if e.pol.Jitter > 0 {
		w *= 1 + e.pol.Jitter*(2*e.faultRNG.Float64()-1)
	}
	return w
}

// slotOf returns the slot currently holding identifier k, or -1.
func (e *Engine) slotOf(k keyspace.Key) int {
	for u, key := range e.ov.Keys() {
		if key == k {
			return u
		}
	}
	return -1
}
