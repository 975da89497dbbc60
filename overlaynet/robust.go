package overlaynet

import (
	"fmt"

	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/obs"
	"smallworld/xrand"
)

// This file is the robust routing layer: greedy routing re-run as a
// message exchange over a faulty network. Where SnapshotRouter assumes
// every forward succeeds instantly, a RobustRouter sends each hop
// through a Transport that may lose the message, return nothing (dead
// or partitioned endpoint), or delay it — and answers with the retry
// discipline of RobustWalk (robustwalk.go): per-hop timeout, bounded
// retry under exponential backoff with jitter, and fallback to the
// next-best neighbour. It generalises the legacy Network's
// RouteGreedyAvoiding/RouteBacktracking to the serving path: instead
// of an omniscient FailSet consulted for free, failure is something
// the router discovers by paying timeouts for it.

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
	// TimedOut: some hop exhausted its retry budget with a lost message
	// among its failures, a byzantine relay swallowed the query, its
	// holder departed mid-flight, or it hit the 4·N hop cap; the
	// initiator gives up without an answer.
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

// RobustPolicy is the retry budget of robust routing. The rest of the
// discipline is fixed: a hop timeout of 0.05 virtual-time units, a
// first backoff of half that, doubling per resend and jittered by
// ±25%, and at most 4·N delivered messages per query. RobustPolicy{}
// is the standard policy.
type RobustPolicy struct {
	// Retries is the per-candidate resend budget after the first
	// attempt. Default 2; negative means no retries (the "retry budget
	// 0" setting).
	Retries int
}

// budget resolves Retries to the per-candidate resend count.
func (p RobustPolicy) budget() int {
	switch {
	case p.Retries == 0:
		return 2
	case p.Retries < 0:
		return 0
	}
	return p.Retries
}

// RobustRouter routes queries over a Transport under a RobustPolicy,
// driving a RobustWalk synchronously over a pinned *Snapshot: keys
// from its chunked spine, candidates past its dead mask, zero
// allocations per route, and Rebind to follow a Publisher. Like every
// Router it is not safe for concurrent use; hold one per goroutine.
type RobustRouter struct {
	snap   *Snapshot
	tr     Transport
	oracle deadOracle
	pol    RobustPolicy
	rng    *xrand.Stream
	walk   RobustWalk

	// Observability, inherited from the pinned snapshot on Rebind or
	// pinned directly via SetObs. nil hooks = one nil check per query.
	hooks     *obsHooks
	hint      obs.Hint
	sampler   obs.Sampler
	obsPinned bool // SetObs was called; Rebind must not override
}

// NewRobustRouter routes over s. The Transport may be nil (a perfect
// network: every send instant and successful — robust routing then
// degenerates to plain greedy). seed drives the router's own draws
// (backoff jitter, byzantine detour picks); give each router its own
// stream for deterministic replay.
//
// Snapshots that delegate routing to a retained source overlay
// (rebuild generations of Chord, Pastry, …) are rejected: their
// routing rule is not the distance-greedy walk this router re-runs
// per message.
func NewRobustRouter(s *Snapshot, tr Transport, pol RobustPolicy, seed uint64) (*RobustRouter, error) {
	if s == nil {
		return nil, fmt.Errorf("overlaynet: nil snapshot")
	}
	if s.src != nil {
		return nil, fmt.Errorf("overlaynet: robust routing unsupported for delegating snapshot of %q", s.kind)
	}
	r := &RobustRouter{snap: s, tr: tr, pol: pol, rng: xrand.New(seed)}
	r.bindSnapObs(s.obs)
	if tr != nil {
		r.oracle, _ = tr.(deadOracle)
	}
	return r, nil
}

// Rebind pins the router to a (newer) snapshot, keeping scratch and
// policy. Allocation-free.
func (r *RobustRouter) Rebind(s *Snapshot) {
	r.snap = s
	if !r.obsPinned && s.obs != r.hooks {
		r.bindSnapObs(s.obs)
	}
}

// SetObs installs instrumentation directly on the router, for
// snapshots captured outside a Publisher. Pinned hooks survive Rebind;
// pass (nil, nil) to unpin and fall back to snapshot-carried hooks.
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

// Route implements Router: RouteRobust collapsed to the legacy Result
// shape (degraded delivery still counts as arrived).
func (r *RobustRouter) Route(src int, target keyspace.Key) Result {
	rr := r.RouteRobust(src, target)
	return Result{Hops: rr.Hops, Dest: rr.Dest, Arrived: rr.Outcome.Arrived()}
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

// routeRobust steps the walk until it ends, adding each wait to the
// query's virtual latency. trc, when non-nil, receives one span per
// delivered hop, timeout and hijack, timed in accumulated latency.
func (r *RobustRouter) routeRobust(src int, target keyspace.Key, trc *obs.Trace) RobustResult {
	s := r.snap
	if src < 0 || src >= s.keys.n || s.Dead(src) || r.oracle != nil && r.oracle.Dead(s.keys.At(src)) {
		// A crashed node originates nothing.
		return RobustResult{Outcome: Unroutable, Dest: -1}
	}
	w := &r.walk
	w.Begin(s.topo, target, r.pol, src, s.keys.At(src))
	latency := 0.0
	for {
		wait, backoff, done := w.Step((*snapPlane)(r), r.rng, latency, trc)
		latency += wait
		latency += backoff
		if done {
			return w.Result(latency)
		}
	}
}

// snapPlane is the RobustPlane a RobustRouter lends its walk: the
// pinned snapshot's population and the router's Transport.
type snapPlane RobustRouter

func (p *snapPlane) N() int                  { return p.snap.keys.n }
func (p *snapPlane) Key(u int) keyspace.Key  { return p.snap.keys.At(u) }
func (p *snapPlane) Neighbors(u int) []int32 { return p.snap.adj.Row(u) }

// Locate: a snapshot never renames its slots.
func (p *snapPlane) Locate(slot int, _ keyspace.Key) (int, bool) { return slot, true }

// Offer passes u's mask-live out-neighbours, keys read from the
// chunked spine.
func (p *snapPlane) Offer(w *RobustWalk, u int) {
	s := p.snap
	spine := s.keys.spine
	var dead []bool
	if s.faults != nil {
		dead = s.faults.dead
	}
	for j, v := range s.adj.Row(u) {
		if dead == nil || !dead[v] {
			w.Consider(v, int32(j), spine[v>>keyChunkShift][v&keyChunkMask])
		}
	}
}

// Send passes the message through the Transport (a nil one delivers
// everything instantly) and counts a delivered one on its link when
// the snapshot tracks link traffic.
func (p *snapPlane) Send(from int, fromKey keyspace.Key, c *RobustCandidate) netmodel.Delivery {
	var d netmodel.Delivery
	if p.tr != nil {
		d = p.tr.Send(fromKey, c.Key)
	}
	if h := p.snap.obs; d.Status == netmodel.SendOK && h != nil && h.links != nil {
		h.countLink(p.snap.adj, from, int(c.Row))
	}
	return d
}

func (p *snapPlane) Misroute(k keyspace.Key) bool { return p.tr != nil && p.tr.Misroute(k) }

// Nearest reads the rank index; a node is live unless the snapshot's
// mask or the Transport's dead oracle says otherwise.
func (p *snapPlane) Nearest(target keyspace.Key, live bool) float64 {
	s := p.snap
	i, _, d := s.rank.nearest(s.topo, target)
	if live {
		return s.nearestLiveDistance(target, i, p.oracle)
	}
	return d
}
