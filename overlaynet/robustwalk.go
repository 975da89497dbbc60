package overlaynet

import (
	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/obs"
	"smallworld/xrand"
)

// This file is the retry discipline of robust routing, written once:
// RobustWalk is the per-query state machine, and its two executors —
// RobustRouter, stepping it synchronously over a pinned Snapshot, and
// package sim's message flights, stepping it one event at a time in
// virtual time — supply only what differs between them: where keys
// and neighbours come from (a RobustPlane), the random stream, and how
// a wait becomes time.

// The retry discipline's constants. Waits are in the virtual-time
// units of netmodel link latencies.
const (
	// hopTimeout is how long a sender waits for the ack of one send
	// before declaring it failed (≫ the default link latency ~0.003).
	hopTimeout = 0.05
	// backoffBase is the wait before a candidate's first resend; it
	// doubles on each further resend.
	backoffBase = hopTimeout / 2
	// backoffJitter randomises each backoff wait by ±25%.
	backoffJitter = 0.25
	// maxHopsPerNode caps delivered messages per query at 4·N,
	// bounding byzantine routing loops.
	maxHopsPerNode = 4
)

// RobustCandidate is one next hop a RobustWalk may send the query to.
type RobustCandidate struct {
	// Slot is the node's slot; a plane whose slots churn re-pins it
	// by Key before sending.
	Slot int32
	// Row is the node's position in the holder's out-row.
	Row int32
	// Key is the node's identifier, its durable name.
	Key keyspace.Key
	// Dist is the node's distance to the target.
	Dist float64
}

// RobustPlane is what an executor lends a RobustWalk: the population the
// query crosses and the message plane between its nodes.
type RobustPlane interface {
	// N returns the current population.
	N() int
	// Key returns the identifier of the node at slot u.
	Key(u int) keyspace.Key
	// Neighbors returns u's out-row.
	Neighbors(u int) []int32
	// Locate returns the slot now holding identifier key, last seen at
	// slot, or false when that node has departed.
	Locate(slot int, key keyspace.Key) (int, bool)
	// Offer passes w.Consider each entry of u's out-row the query may
	// be sent to: all of them, or those not known dead.
	Offer(w *RobustWalk, u int)
	// Send passes one message from the node at slot from (identifier
	// fromKey) to c and reports its fate. It may re-pin c.Slot.
	Send(from int, fromKey keyspace.Key, c *RobustCandidate) netmodel.Delivery
	// Misroute reports whether the node holding key hijacks a query
	// arriving at it (byzantine forwarding).
	Misroute(key keyspace.Key) bool
	// Nearest returns the distance from target to the nearest node or,
	// with live, to the nearest live node (negative when none is).
	Nearest(target keyspace.Key, live bool) float64
}

// RobustWalk is the retry state machine of one robustly routed query.
// Each Step makes the query's next send attempt, or ends it. Sends go
// to the best improving candidate of the node holding the query,
// resending under doubling, jittered backoff up to the policy's
// budget, then falling back to the next-best candidate; a byzantine
// holder detours the query to a random neighbour first. When the
// candidates run out the query ends TimedOut if any send to them was
// lost and Unroutable otherwise; when there are none it stops and is
// typed from three distances — at the stop, to the nearest node and to
// the nearest live node. The zero value is ready for Begin; candidate
// scratch is reused across walks.
type RobustWalk struct {
	topo   keyspace.Topology
	target keyspace.Key
	budget int // per-candidate resends

	// The holder: the node the query sits on.
	slot int
	key  keyspace.Key
	dist float64

	hops, retries int
	degraded      bool // retries, fallbacks or detours happened
	sawLost       bool // a send at this hop was lost, not unreachable
	outcome       Outcome

	// The holder's improving candidates in greedy order; ci indexes the
	// one being tried, -1 until they are built.
	cands   []RobustCandidate
	ci      int
	attempt int     // resends burned on cands[ci]
	backoff float64 // next backoff wait for cands[ci]
}

// Begin starts a walk toward target from the node at slot, identifier
// key, under pol.
func (w *RobustWalk) Begin(topo keyspace.Topology, target keyspace.Key, pol RobustPolicy, slot int, key keyspace.Key) {
	*w = RobustWalk{
		topo: topo, target: target, budget: pol.budget(),
		slot: slot, key: key, dist: topo.Distance(key, target),
		cands: w.cands[:0], ci: -1,
	}
}

// Consider offers entry row of the holder's out-row, the node at slot
// with identifier key, as a candidate. It keeps the entry when it is
// no farther from the target than the holder — Improves' first test,
// which rejects the common case inline — and rank applies the rest.
func (w *RobustWalk) Consider(slot, row int32, key keyspace.Key) {
	if d := w.topo.Distance(key, w.target); d <= w.dist {
		w.cands = append(w.cands, RobustCandidate{Slot: slot, Row: row, Key: key, Dist: d})
	}
}

// rank keeps the considered entries that improve on the holder and
// orders them greedily, by a stable insertion sort on distance, since
// candidate lists are short.
func (w *RobustWalk) rank() {
	topo, cur, target, dCur := w.topo, w.key, w.target, w.dist
	cands := w.cands
	n := 0
	for _, c := range cands {
		if !topo.Improves(cur, c.Key, target, c.Dist, dCur) {
			continue
		}
		i := n
		for ; i > 0 && c.Dist < cands[i-1].Dist; i-- {
			cands[i] = cands[i-1]
		}
		cands[i] = c
		n++
	}
	w.cands = cands[:n]
}

// Step makes the walk's next send attempt over p, drawing backoff
// jitter and detour picks from rng and recording spans on trc at time
// at. The executor's clock then advances by wait and by backoff: an
// executor that sums them first (now+(wait+backoff)) rounds differently
// from one that adds them in turn, so each keeps its own order. done
// reports that the walk has ended; Result has its record.
func (w *RobustWalk) Step(p RobustPlane, rng *xrand.Stream, at float64, trc *obs.Trace) (wait, backoff float64, done bool) {
	slot, ok := p.Locate(w.slot, w.key)
	if !ok {
		// The holder departed mid-flight: the initiator only learns by
		// timing out.
		return w.end(TimedOut, 0)
	}
	w.slot = slot
	if w.hops >= maxHopsPerNode*p.N() {
		return w.end(TimedOut, 0)
	}
	if w.ci < 0 {
		// Just arrived: a byzantine holder hijacks the query before
		// honest routing gets a say.
		if w.hops > 0 && p.Misroute(w.key) {
			return w.detour(p, rng, at, trc)
		}
		w.cands = w.cands[:0]
		p.Offer(w, w.slot)
		w.rank()
		if len(w.cands) == 0 {
			return w.end(w.stop(p), 0)
		}
		w.ci, w.attempt, w.backoff, w.sawLost = 0, 0, backoffBase, false
	}
	c := &w.cands[w.ci]
	d := p.Send(w.slot, w.key, c)
	if d.Status == netmodel.SendOK {
		trc.Hop(at, d.Latency, c.Slot, w.ci, w.attempt, obs.SpanHop, c.Dist)
		w.advance(c)
		return d.Latency, 0, false
	}
	// The sender cannot tell a lost message from a dead peer: both are
	// a timeout, both are retried; only the outcome tells them apart.
	trc.Hop(at, hopTimeout, c.Slot, w.ci, w.attempt, obs.SpanTimeout, c.Dist)
	if d.Status == netmodel.SendLost {
		w.sawLost = true
	}
	if w.attempt < w.budget {
		w.attempt++
		w.retries++
		w.degraded = true
		wait := w.backoff
		w.backoff *= 2
		return hopTimeout, wait * (1 + backoffJitter*(2*rng.Float64()-1)), false
	}
	// Candidate exhausted: fall back to the next-best one.
	w.ci++
	w.attempt, w.backoff = 0, backoffBase
	if w.ci < len(w.cands) {
		w.degraded = true
		return hopTimeout, 0, false
	}
	if w.sawLost {
		return w.end(TimedOut, hopTimeout)
	}
	return w.end(Unroutable, hopTimeout)
}

// detour executes a byzantine holder's hijack: the query goes to a
// uniformly random out-neighbour or, when that send fails, vanishes,
// and the initiator pays its timeout. The detour target is not a
// candidate, so its span records rank -1.
func (w *RobustWalk) detour(p RobustPlane, rng *xrand.Stream, at float64, trc *obs.Trace) (float64, float64, bool) {
	if row := p.Neighbors(w.slot); len(row) > 0 {
		j := rng.Intn(len(row))
		key := p.Key(int(row[j]))
		w.cands = append(w.cands[:0], RobustCandidate{
			Slot: row[j], Row: int32(j), Key: key, Dist: w.topo.Distance(key, w.target),
		})
		c := &w.cands[0]
		if d := p.Send(w.slot, w.key, c); d.Status == netmodel.SendOK {
			trc.Hop(at, d.Latency, c.Slot, -1, 0, obs.SpanHijack, c.Dist)
			w.degraded = true
			w.advance(c)
			return d.Latency, 0, false
		}
	}
	return w.end(TimedOut, hopTimeout)
}

// advance moves the query onto c after a delivered message.
func (w *RobustWalk) advance(c *RobustCandidate) {
	w.hops++
	w.slot, w.key, w.dist = int(c.Slot), c.Key, c.Dist
	w.ci = -1
}

// stop types a query whose holder has no improving candidate, from
// three distances to the target: the holder's, the nearest node's and,
// only when needed, the nearest live node's. Delivered at a nearest
// node; DeliveredDegraded there after retries, fallbacks or detours,
// or at the nearest live node when the responsible node is dead;
// Unroutable otherwise — a live improvement exists but no live path
// reaches it from here.
func (w *RobustWalk) stop(p RobustPlane) Outcome {
	switch {
	case w.dist <= p.Nearest(w.target, false):
		if w.degraded {
			return DeliveredDegraded
		}
		return Delivered
	case w.dist <= p.Nearest(w.target, true):
		return DeliveredDegraded
	}
	return Unroutable
}

// end finishes the walk with outcome o after a last wait.
func (w *RobustWalk) end(o Outcome, wait float64) (float64, float64, bool) {
	w.outcome = o
	return wait, 0, true
}

// Result returns the walk's record once Step has reported done;
// latency is the virtual time the executor's clock consumed.
func (w *RobustWalk) Result(latency float64) RobustResult {
	return RobustResult{Outcome: w.outcome, Hops: w.hops, Retries: w.retries, Latency: latency, Dest: w.slot}
}
