package overlaynet

import (
	"fmt"
	"sync/atomic"

	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/obs"
	"smallworld/xrand"
)

// This file is the robust routing layer: greedy routing re-run as a
// message exchange over a faulty network. Where SnapshotRouter assumes
// every forward succeeds instantly, a RobustRouter sends each hop
// through a Transport that may lose the message, return nothing (dead
// or partitioned endpoint), or delay it — and answers with per-hop
// timeout, bounded retry under exponential backoff with jitter, and
// fallback to the next-best neighbour. It generalises the legacy
// Network's RouteGreedyAvoiding/RouteBacktracking to the serving path:
// instead of an omniscient FailSet consulted for free, failure is
// something the router discovers by paying timeouts for it.

// Transport is the message plane robust routing sends hops through.
// netmodel.Model implements it; tests substitute scripted planes.
// A Transport is not assumed safe for concurrent use — hold one per
// routing goroutine, or serialise.
type Transport interface {
	// Send attempts one message between the nodes holding the two
	// identifiers and reports its fate.
	Send(from, to keyspace.Key) netmodel.Delivery
	// Misroute reports whether the node holding the identifier hijacks
	// a query arriving at it (byzantine forwarding).
	Misroute(at keyspace.Key) bool
}

// deadOracle is optionally implemented by Transports that know the
// true crashed set (netmodel.Model does). Robust routing uses it only
// to *classify* a finished query — whether the stop node is the
// closest live node — never to pick candidates; the router learns
// about dead peers the expensive way, by timing out on them, unless a
// published snapshot mask says otherwise.
type deadOracle interface {
	Dead(k keyspace.Key) bool
}

// Outcome is the typed fate of a robustly routed query.
type Outcome uint8

const (
	// Delivered: the query reached the responsible node cleanly — no
	// retries, no fallbacks, no byzantine detours.
	Delivered Outcome = iota
	// DeliveredDegraded: the query reached a correct destination (the
	// closest live node) but needed retries, a next-best fallback, a
	// byzantine detour, or the responsible node itself was dead.
	DeliveredDegraded
	// TimedOut: some hop exhausted its retry budget on lost messages
	// (or the query exceeded its end-to-end budget); the initiator
	// gives up without an answer.
	TimedOut
	// Unroutable: routing stopped at a live node with no live improving
	// neighbour short of the target region — the overlay is partitioned
	// (or every better peer is unreachable), and no amount of retrying
	// the same links can help.
	Unroutable
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case DeliveredDegraded:
		return "degraded"
	case TimedOut:
		return "timeout"
	case Unroutable:
		return "unroutable"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Arrived reports whether the query reached a correct destination
// (possibly degraded).
func (o Outcome) Arrived() bool { return o == Delivered || o == DeliveredDegraded }

// RobustResult records one robustly routed query.
type RobustResult struct {
	// Outcome is the typed fate of the query.
	Outcome Outcome
	// Hops counts messages actually delivered (retries excluded).
	Hops int
	// Retries counts resends beyond each first attempt.
	Retries int
	// Latency is the end-to-end virtual time consumed: link latencies
	// of delivered messages plus hop timeouts and backoff waits of
	// failed ones.
	Latency float64
	// Dest is the node where routing stopped, -1 when it never started.
	Dest int
}

// RobustPolicy is the timeout/retry/backoff discipline of robust
// routing. The zero value of every field means its documented default,
// so RobustPolicy{} is the standard policy; negative values mean
// "none" where 0 selects a default.
type RobustPolicy struct {
	// HopTimeout is how long a sender waits for the ack of one send
	// before declaring it failed. Default 0.05 virtual-time units
	// (≫ the default netmodel link latency of ~0.003).
	HopTimeout float64
	// Retries is the per-candidate resend budget after the first
	// attempt. Default 2; negative means no retries (the "retry budget
	// 0" setting).
	Retries int
	// Backoff is the wait before the first resend, doubling on each
	// further resend. Default HopTimeout/2.
	Backoff float64
	// Jitter randomises each backoff wait by ±Jitter·wait. Default
	// 0.25; negative means none.
	Jitter float64
	// QueryTimeout is the end-to-end budget after which the initiator
	// gives up. Default 0: no end-to-end deadline (the per-hop budgets
	// already bound every query).
	QueryTimeout float64
	// MaxHops caps delivered messages per query, bounding byzantine
	// routing loops. Default 4·N.
	MaxHops int
}

// Resolved returns the policy with every zero-valued field replaced by
// its documented default (MaxHops stays as given; it is resolved
// against the population per query). Exposed so other executors of the
// policy — package sim's message flights — resolve it identically.
func (p RobustPolicy) Resolved() RobustPolicy { return p.withDefaults() }

// withDefaults resolves zero-valued fields to their documented
// defaults (MaxHops stays 0 here; it is resolved against N per route).
func (p RobustPolicy) withDefaults() RobustPolicy {
	if p.HopTimeout <= 0 {
		p.HopTimeout = 0.05
	}
	if p.Retries == 0 {
		p.Retries = 2
	} else if p.Retries < 0 {
		p.Retries = 0
	}
	if p.Backoff == 0 {
		p.Backoff = p.HopTimeout / 2
	} else if p.Backoff < 0 {
		p.Backoff = 0
	}
	if p.Jitter == 0 {
		p.Jitter = 0.25
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// RobustRouter routes queries over a Transport under a RobustPolicy.
// It wraps either a pinned *Snapshot (the serving path: zero
// allocations per route, dead-mask candidate skipping, Rebind to
// follow a Publisher) or any other Overlay (generic path). Like every
// Router it is not safe for concurrent use; hold one per goroutine.
type RobustRouter struct {
	snap *Snapshot
	ov   Overlay
	topo keyspace.Topology

	tr     Transport
	oracle deadOracle
	pol    RobustPolicy
	rng    *xrand.Stream

	cands []int32
	dists []float64
	candJ []int32 // candidate's index in cur's out-row (link accounting)

	// Observability, inherited from the pinned snapshot on Rebind or
	// pinned directly via SetObs. nil hooks = one nil check per query.
	hooks     *obsHooks
	hint      obs.Hint
	sampler   obs.Sampler
	obsPinned bool // SetObs was called; Rebind must not override
}

// NewRobustRouter wraps ov. The Transport may be nil (a perfect
// network: every send instant and successful — robust routing then
// degenerates to plain greedy). seed drives the router's own draws
// (backoff jitter, byzantine detour picks); give each router its own
// stream for deterministic replay.
//
// Snapshots that delegate routing to a retained source overlay
// (rebuild generations of Chord, Pastry, …) are rejected: their
// routing rule is not the distance-greedy walk this router re-runs
// per message.
func NewRobustRouter(ov Overlay, tr Transport, pol RobustPolicy, seed uint64) (*RobustRouter, error) {
	if ov == nil {
		return nil, fmt.Errorf("overlaynet: nil overlay")
	}
	r := &RobustRouter{
		ov:   ov,
		topo: keyspace.Ring,
		tr:   tr,
		pol:  pol.withDefaults(),
		rng:  xrand.New(seed),
	}
	if th, ok := ov.(topologyHaver); ok {
		r.topo = th.Topology()
	}
	if s, ok := ov.(*Snapshot); ok {
		if s.src != nil {
			return nil, fmt.Errorf("overlaynet: robust routing unsupported for delegating snapshot of %q", s.kind)
		}
		r.snap = s
		r.bindSnapObs(s.obs)
	}
	if tr != nil {
		r.oracle, _ = tr.(deadOracle)
	}
	return r, nil
}

// Rebind pins the router to a (newer) snapshot, keeping scratch and
// policy. Allocation-free; only valid for routers built over a
// Snapshot.
func (r *RobustRouter) Rebind(s *Snapshot) {
	r.snap = s
	r.ov = s
	r.topo = s.topo
	if !r.obsPinned && s.obs != r.hooks {
		r.bindSnapObs(s.obs)
	}
}

// SetObs installs instrumentation directly on the router, for robust
// routing over plain overlays or snapshots captured outside a
// Publisher. Pinned hooks survive Rebind; pass (nil, nil) to unpin and
// fall back to snapshot-carried hooks.
func (r *RobustRouter) SetObs(reg *obs.Registry, tracer *obs.Tracer) {
	if reg == nil && tracer == nil {
		r.hooks, r.obsPinned = nil, false
		return
	}
	r.hooks = &obsHooks{reg: reg, tracer: tracer}
	r.hint = reg.NextHint()
	r.sampler = tracer.NewSampler()
	r.obsPinned = true
}

// bindSnapObs adopts the hooks a pinned snapshot carries, keeping the
// hint and sampler across epochs of the same registry/tracer.
func (r *RobustRouter) bindSnapObs(h *obsHooks) {
	if h != nil && (r.hooks == nil || h.reg != r.hooks.reg || h.tracer != r.hooks.tracer) {
		r.hint = h.reg.NextHint()
		r.sampler = h.tracer.NewSampler()
	}
	r.hooks = h
}

// Policy returns the resolved policy the router routes under.
func (r *RobustRouter) Policy() RobustPolicy { return r.pol }

// Route implements Router: RouteRobust collapsed to the legacy Result
// shape (degraded delivery still counts as arrived).
func (r *RobustRouter) Route(src int, target keyspace.Key) Result {
	rr := r.RouteRobust(src, target)
	return Result{Hops: rr.Hops, Dest: rr.Dest, Arrived: rr.Outcome.Arrived()}
}

// keysView returns the identifier slice the router routes over. For a
// pinned snapshot this is the lazily-materialized flat copy — built
// once per snapshot and cached, so re-pinning within an epoch stays
// allocation-free.
func (r *RobustRouter) keysView() []keyspace.Key {
	if r.snap != nil {
		return r.snap.Keys()
	}
	return r.ov.Keys()
}

// neighborsView returns u's out-row.
func (r *RobustRouter) neighborsView(u int) []int32 {
	if r.snap != nil {
		return r.snap.csr.Out(u)
	}
	return r.ov.Neighbors(u)
}

// maskDead reports whether the published fault mask marks slot u dead
// (the snapshot-learned knowledge a router may legitimately act on).
func (r *RobustRouter) maskDead(u int) bool {
	return r.snap != nil && r.snap.faults != nil && r.snap.faults.dead[u]
}

// RouteRobust routes one query from node src to the peer responsible
// for target, paying for every fault the Transport injects.
func (r *RobustRouter) RouteRobust(src int, target keyspace.Key) RobustResult {
	if r.hooks == nil {
		return r.routeRobust(src, target, nil)
	}
	return r.routeRobustObserved(src, target)
}

// routeRobustObserved wraps the core walk with counters, histograms and
// 1-in-N trace sampling. Outlined from RouteRobust so the
// uninstrumented path pays one nil check.
func (r *RobustRouter) routeRobustObserved(src int, target keyspace.Key) RobustResult {
	h := r.hooks
	trc := r.sampler.Start("robust", src, float64(target), 0)
	res := r.routeRobust(src, target, trc)
	if reg := h.reg; reg != nil {
		reg.RouteQueries.Inc(r.hint)
		reg.RouteHops.Add(r.hint, uint64(res.Hops))
		reg.RouteRetries.Add(r.hint, uint64(res.Retries))
		reg.RouteOutcomes[obsOutcome(res.Outcome)].Inc(r.hint)
		if res.Outcome.Arrived() {
			reg.HopsPerQuery.Observe(float64(res.Hops))
		} else {
			reg.RouteFailures.Inc(r.hint)
		}
		reg.VirtLatency.Observe(res.Latency)
	}
	if trc != nil {
		h.tracer.Finish(trc, res.Latency, res.Outcome.String())
	}
	return res
}

// routeRobust is the core walk. trc, when non-nil, receives one span
// per delivered hop, timeout and hijack, timed in accumulated virtual
// latency; recording reads only values the walk already computed.
func (r *RobustRouter) routeRobust(src int, target keyspace.Key, trc *obs.Trace) RobustResult {
	keys := r.keysView()
	n := len(keys)
	res := RobustResult{Dest: -1}
	if src < 0 || src >= n {
		res.Outcome = Unroutable
		return res
	}
	if r.maskDead(src) || (r.oracle != nil && r.oracle.Dead(keys[src])) {
		// A crashed node originates nothing.
		res.Outcome = Unroutable
		return res
	}
	pol := r.pol
	maxHops := pol.MaxHops
	if maxHops <= 0 {
		maxHops = 4 * n
	}
	var links []uint64
	if r.snap != nil && r.snap.obs != nil {
		links = r.snap.obs.links
	}
	cur := src
	dCur := r.topo.Distance(keys[cur], target)
	degraded := false
	for {
		if res.Hops >= maxHops {
			res.Outcome, res.Dest = TimedOut, cur
			return res
		}
		if pol.QueryTimeout > 0 && res.Latency >= pol.QueryTimeout {
			res.Outcome, res.Dest = TimedOut, cur
			return res
		}
		// Byzantine hijack: a compromised relay forwards the query to a
		// neighbour of its own choosing before honest routing gets a say.
		if res.Hops > 0 && r.tr != nil && r.tr.Misroute(keys[cur]) {
			nbrs := r.neighborsView(cur)
			hijacked := false
			if len(nbrs) > 0 {
				j := r.rng.Intn(len(nbrs))
				v := int(nbrs[j])
				if d := r.tr.Send(keys[cur], keys[v]); d.Status == netmodel.SendOK {
					if links != nil {
						atomic.AddUint64(&links[r.snap.csr.RowStart(cur)+j], 1)
					}
					dv := r.topo.Distance(keys[v], target)
					trc.Hop(res.Latency, d.Latency, int32(v), j, 0, obs.SpanHijack, dv)
					res.Latency += d.Latency
					res.Hops++
					cur, dCur = v, dv
					degraded, hijacked = true, true
				}
			}
			if !hijacked {
				// Hijacked into the void: the relay pretended to forward and
				// nothing arrived anywhere. The initiator only learns by
				// waiting out its timeout.
				res.Latency += pol.HopTimeout
				res.Outcome, res.Dest = TimedOut, cur
				return res
			}
			continue
		}
		nc := r.buildCandidates(cur, target, dCur, keys)
		if nc == 0 {
			return r.classifyStop(res, cur, dCur, target, keys, degraded)
		}
		advanced := false
		sawLost := false
		for ci := 0; ci < nc && !advanced; ci++ {
			v := int(r.cands[ci])
			if ci > 0 {
				degraded = true // next-best fallback in use
			}
			backoff := pol.Backoff
			for attempt := 0; ; attempt++ {
				var d netmodel.Delivery
				if r.tr != nil {
					d = r.tr.Send(keys[cur], keys[v])
				}
				if d.Status == netmodel.SendOK {
					if links != nil {
						atomic.AddUint64(&links[r.snap.csr.RowStart(cur)+int(r.candJ[ci])], 1)
					}
					trc.Hop(res.Latency, d.Latency, int32(v), ci, attempt, obs.SpanHop, r.dists[ci])
					res.Latency += d.Latency
					res.Hops++
					cur, dCur = v, r.dists[ci]
					advanced = true
					break
				}
				// The sender cannot tell a lost message from a dead peer:
				// both are a timeout. It retries either way; only the
				// classifier distinguishes them.
				trc.Hop(res.Latency, pol.HopTimeout, int32(v), ci, attempt, obs.SpanTimeout, r.dists[ci])
				res.Latency += pol.HopTimeout
				if d.Status == netmodel.SendLost {
					sawLost = true
				}
				if attempt >= pol.Retries {
					break
				}
				res.Retries++
				degraded = true
				res.Latency += r.backoffWait(&backoff)
			}
		}
		if !advanced {
			res.Dest = cur
			if sawLost {
				res.Outcome = TimedOut
			} else {
				res.Outcome = Unroutable
			}
			return res
		}
	}
}

// backoffWait returns the next backoff wait (jittered) and doubles the
// base for the following one.
func (r *RobustRouter) backoffWait(base *float64) float64 {
	w := *base
	*base *= 2
	if r.pol.Jitter > 0 {
		w *= 1 + r.pol.Jitter*(2*r.rng.Float64()-1)
	}
	return w
}

// buildCandidates fills r.cands/r.dists with cur's improving,
// mask-live out-neighbours in ascending distance order and returns the
// count. Scratch is reused: zero allocations once warm.
func (r *RobustRouter) buildCandidates(cur int, target keyspace.Key, dCur float64, keys []keyspace.Key) int {
	topo := r.topo
	curKey := keys[cur]
	r.cands = r.cands[:0]
	r.dists = r.dists[:0]
	r.candJ = r.candJ[:0]
	for j, v := range r.neighborsView(cur) {
		if r.maskDead(int(v)) {
			continue
		}
		vKey := keys[v]
		d := topo.Distance(vKey, target)
		if topo.Improves(curKey, vKey, target, d, dCur) {
			r.cands = append(r.cands, v)
			r.dists = append(r.dists, d)
			r.candJ = append(r.candJ, int32(j))
		}
	}
	// Insertion sort by distance; candidate lists are short.
	for i := 1; i < len(r.cands); i++ {
		for j := i; j > 0 && r.dists[j] < r.dists[j-1]; j-- {
			r.dists[j], r.dists[j-1] = r.dists[j-1], r.dists[j]
			r.cands[j], r.cands[j-1] = r.cands[j-1], r.cands[j]
			r.candJ[j], r.candJ[j-1] = r.candJ[j-1], r.candJ[j]
		}
	}
	return len(r.cands)
}

// classifyStop types a query that stopped at a live local minimum:
// Delivered when cur is a minimal-distance node for the target,
// DeliveredDegraded when cur is merely the closest *live* node (the
// responsible node itself is crashed), Unroutable otherwise — a live
// improvement exists but no live path reaches it from here.
func (r *RobustRouter) classifyStop(res RobustResult, cur int, dCur float64, target keyspace.Key, keys []keyspace.Key, degraded bool) RobustResult {
	res.Dest = cur
	arrivedClean := false
	if r.snap != nil {
		s := r.snap
		if i := s.rank.Nearest(s.topo, target); i >= 0 {
			arrivedClean = dCur <= s.topo.Distance(s.rank.KeyAt(i), target)
		}
	} else {
		best := r.topo.MaxDistance() + 1
		for _, k := range keys {
			if d := r.topo.Distance(k, target); d < best {
				best = d
			}
		}
		arrivedClean = dCur <= best
	}
	if arrivedClean {
		if degraded {
			res.Outcome = DeliveredDegraded
		} else {
			res.Outcome = Delivered
		}
		return res
	}
	// The responsible node may be dead: stopping at the closest live
	// node is still a (degraded) delivery.
	if dLive, ok := r.nearestLiveDistance(target, keys); ok && dCur <= dLive {
		res.Outcome = DeliveredDegraded
		return res
	}
	res.Outcome = Unroutable
	return res
}

// nearestLiveDistance returns the distance from target to the closest
// node that is neither mask-dead nor oracle-dead, and whether any
// liveness information was available at all (without a mask or an
// oracle there is nothing to soften, and the clean check already
// decided).
func (r *RobustRouter) nearestLiveDistance(target keyspace.Key, keys []keyspace.Key) (float64, bool) {
	hasMask := r.snap != nil && r.snap.faults != nil
	if !hasMask && r.oracle == nil {
		return 0, false
	}
	best := r.topo.MaxDistance() + 1
	found := false
	if r.snap != nil {
		// Rank-outward scan from the nearest rank: each directional walk
		// stops at its first live hit, so the cost is the dead run
		// around the target, not N (same argument as the snapshot's own
		// nearestLiveDistance).
		s := r.snap
		n := s.rank.n
		if n == 0 {
			return 0, false
		}
		start := s.rank.Nearest(s.topo, target)
		deadAt := func(i int) bool {
			if hasMask && s.faults.dead[s.rank.SlotAt(i)] {
				return true
			}
			return r.oracle != nil && r.oracle.Dead(s.rank.KeyAt(i))
		}
		for step, i := 0, start; step < n; step++ {
			if !deadAt(i) {
				if d := s.topo.Distance(s.rank.KeyAt(i), target); d < best {
					best, found = d, true
				}
				break
			}
			i++
			if i == n {
				if s.topo != keyspace.Ring {
					break
				}
				i = 0
			}
		}
		for step, i := 0, start; step < n; step++ {
			if !deadAt(i) {
				if d := s.topo.Distance(s.rank.KeyAt(i), target); d < best {
					best, found = d, true
				}
				break
			}
			i--
			if i < 0 {
				if s.topo != keyspace.Ring {
					break
				}
				i = n - 1
			}
		}
		return best, found
	}
	for _, k := range keys {
		if r.oracle.Dead(k) {
			continue
		}
		if d := r.topo.Distance(k, target); d < best {
			best, found = d, true
		}
	}
	return best, found
}
