package overlaynet

import (
	"math"
	"sort"
	"sync/atomic"

	"smallworld/graph"
	"smallworld/keyspace"
	"smallworld/obs"
)

// Snapshot is an immutable, routable picture of an overlay at one
// publication epoch: the out-rows, the identifier array, and the
// sorted rank index. Everything a query needs is frozen inside the
// value, so any number of goroutines may route against the same
// Snapshot concurrently — and against *different* Snapshots of the same
// overlay — without synchronisation. Snapshots are produced by a
// Publisher (or directly by NewSnapshot) and are never mutated after
// publication; that invariant, not locking, is what makes the serving
// read path safe under churn.
type Snapshot struct {
	kind  string
	epoch uint64
	topo  keyspace.Topology
	keys  keyView  // identifier per slot (chunked, structurally shared)
	adj   adjView  // out-row per slot (row blocks, structurally shared)
	rank  rankView // sorted rank index: rank→(key, slot), chunked

	// Lazily-materialized flat copies for compatibility callers
	// (Overlay.Keys, the store's SortedKeys). Built at most once per
	// snapshot and cached; the store is an atomic pointer only because
	// two readers may materialize concurrently — both results are
	// identical, so the race is benign. Never touched by the routing
	// hot paths, which read the chunked views directly.
	flatKeys   atomic.Pointer[[]keyspace.Key]
	flatSorted atomic.Pointer[keyspace.Points]

	// src, when non-nil, is a retained *immutable* overlay whose own
	// routing semantics the snapshot delegates to. Distance-greedy
	// routing over the captured rows is exact for the small-world family
	// (bidirectional rings), but overlays with directional routing
	// rules — Chord's clockwise fingers, Pastry's digit correction —
	// would strand most queries under it; their rebuild generations are
	// never mutated after construction, so the snapshot keeps the
	// generation itself and routes through its NewRouter.
	src Overlay

	// faults, when non-nil, is the fault mask materialised at capture
	// time from the Publisher's FaultPlane: which slots were dead as of
	// the recorded fault epoch. Immutable like everything else in the
	// snapshot, so SnapshotRouters skip dead candidates with one indexed
	// load and zero allocations.
	faults *snapFaults

	// obs, when non-nil, is the instrumentation attached by a Publisher
	// carrying a registry/tracer (see obs.go). The registry's counters
	// are the only mutable state reachable from a snapshot — updated
	// atomically, read only by scrapers, and never consulted by routing
	// decisions.
	obs *obsHooks
}

// snapFaults is a snapshot's frozen fault mask.
type snapFaults struct {
	epoch uint64
	dead  []bool
	n     int
}

// buildFaultMask materialises fp's current view over s's population.
func buildFaultMask(s *Snapshot, fp FaultPlane) *snapFaults {
	return patchFaultMask(nil, s, fp)
}

// patchFaultMask is buildFaultMask given prev, the snapshot published
// before s, whose mask (when prev is not nil) fp drew at its current
// fault epoch. The plane's answers then depend only on the identifiers
// (the FaultPlane contract), so the marks of every key chunk s shares
// with prev, pointer for pointer, are copied; in a chunk the epoch
// replaced, a slot that holds the identifier it held in prev keeps its
// mark, and the plane is asked only about the others. The dead count
// moves by those slots' marks alone. The patched mask keeps prev's
// epoch, so a bump during the patch leaves it stamped stale and the
// next publication builds a whole one.
func patchFaultMask(prev *Snapshot, s *Snapshot, fp FaultPlane) *snapFaults {
	n := s.keys.n
	f := &snapFaults{dead: make([]bool, n)}
	var old keyView
	var was []bool
	if prev != nil {
		f.epoch, f.n, old, was = prev.faults.epoch, prev.faults.n, prev.keys, prev.faults.dead
	} else {
		f.epoch = fp.FaultEpoch()
	}
	for lo := 0; lo < max(n, old.n); lo += keyChunkLen {
		j, hi := lo>>keyChunkShift, lo+keyChunkLen
		var a, b *keyChunk // chunk j of prev and of s, nil past a spine
		if j < len(old.spine) {
			a = old.spine[j]
		}
		if j < len(s.keys.spine) {
			b = s.keys.spine[j]
		}
		u := lo
		if a == b {
			u = min(hi, n, old.n)
			copy(f.dead[lo:u], was[lo:u])
		}
		for ; u < min(hi, n); u++ {
			k := b[u&keyChunkMask]
			if u < old.n {
				if math.Float64bits(float64(a[u&keyChunkMask])) == math.Float64bits(float64(k)) {
					f.dead[u] = was[u]
					continue
				}
				if was[u] {
					f.n--
				}
			}
			if fp.Dead(k) {
				f.dead[u] = true
				f.n++
			}
		}
		for u = max(lo, n); u < min(hi, old.n); u++ {
			if was[u] {
				f.n-- // the slot left the population
			}
		}
	}
	return f
}

// Snapshotter is implemented by Dynamic overlays that can emit an
// immutable snapshot of their current state more cheaply than the
// generic row-by-row capture (the incremental overlay shares its key
// chunks, rank chunks and row blocks, copying only their spines).
// CaptureSnapshot must only be called from the writer side —
// concurrent membership mutation during capture is the caller's race,
// not the Snapshot's.
type Snapshotter interface {
	CaptureSnapshot() *Snapshot
}

// topologyHaver is implemented by overlays that know their key-space
// geometry; overlays without it are treated as ring-native, which every
// DHT adapter in the registry is.
type topologyHaver interface {
	Topology() keyspace.Topology
}

// NewSnapshot captures ov's current state as an immutable Snapshot. If
// ov implements Snapshotter the overlay's own (cheaper) capture is
// used; otherwise keys are copied, rows are laid out in row blocks one
// by one and the rank index is rebuilt, O(N log N + M). The caller
// must guarantee ov is not mutated during the capture (hold the writer
// lock; Publisher does).
func NewSnapshot(ov Overlay) *Snapshot {
	if s, ok := ov.(Snapshotter); ok {
		return s.CaptureSnapshot()
	}
	n := ov.N()
	topo := keyspace.Ring
	if th, ok := ov.(topologyHaver); ok {
		topo = th.Topology()
	}
	s := &Snapshot{
		kind: ov.Kind(),
		topo: topo,
	}
	flat := append([]keyspace.Key(nil), ov.Keys()...)
	s.keys = newKeyView(flat)
	s.flatKeys.Store(&flat)
	s.adj = newAdjStore(n, ov.Neighbors, 0).adjView
	s.buildRankIndex(flat)
	return s
}

// buildRankIndex derives the chunked rank index from flat keys. The
// freshly built flat arrays seed the snapshot's lazy caches — they are
// already materialized, so compatibility callers get them for free.
func (s *Snapshot) buildRankIndex(flat []keyspace.Key) {
	n := len(flat)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return flat[order[i]] < flat[order[j]]
	})
	byKey := make(keyspace.Points, n)
	for i, id := range order {
		byKey[i] = flat[id]
	}
	s.rank = newRankView(byKey, order)
	s.flatSorted.Store(&byKey)
}

// Kind returns the wrapped overlay's kind.
func (s *Snapshot) Kind() string { return s.kind }

// Epoch returns the publication epoch, starting at 1 for the snapshot a
// Publisher takes at construction. Snapshots captured directly through
// NewSnapshot carry epoch 0.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// FaultEpoch returns the fault-plane epoch the snapshot's fault mask
// was materialised at, 0 when the snapshot carries no mask (no
// FaultPlane installed on the Publisher).
func (s *Snapshot) FaultEpoch() uint64 {
	if s.faults == nil {
		return 0
	}
	return s.faults.epoch
}

// Dead reports whether the snapshot's fault mask marks slot u dead.
// Always false without a mask.
func (s *Snapshot) Dead(u int) bool {
	return s.faults != nil && s.faults.dead[u]
}

// DeadCount returns the number of masked slots.
func (s *Snapshot) DeadCount() int {
	if s.faults == nil {
		return 0
	}
	return s.faults.n
}

// Topology returns the key-space geometry the snapshot routes under.
func (s *Snapshot) Topology() keyspace.Topology { return s.topo }

// N returns the number of nodes frozen in the snapshot.
func (s *Snapshot) N() int { return s.keys.n }

// Key returns node u's identifier.
func (s *Snapshot) Key(u int) keyspace.Key { return s.keys.At(u) }

// Keys returns all identifiers, indexed by node. Read-only. The flat
// slice is materialized from the chunked view on first call and cached
// for the snapshot's lifetime — O(N) once, free afterwards.
func (s *Snapshot) Keys() []keyspace.Key {
	if p := s.flatKeys.Load(); p != nil {
		return *p
	}
	flat := s.keys.materialize()
	s.flatKeys.Store(&flat)
	return flat
}

// Neighbors returns u's frozen out-row. Read-only, never allocates.
func (s *Snapshot) Neighbors(u int) []int32 { return s.adj.Row(u) }

// Stats summarises the frozen adjacency.
func (s *Snapshot) Stats() Stats { return statsOf(s) }

// CSR copies the frozen rows into a fresh flat CSR for analysis
// callers: O(N+M) time and memory on every call, never cached.
func (s *Snapshot) CSR() *graph.CSR { return s.adj.csr() }

// Responsible returns the slot whose identifier is nearest to target
// under the snapshot's topology — the node a correctly terminating
// greedy route ends at.
func (s *Snapshot) Responsible(target keyspace.Key) int {
	i, slot, _ := s.rank.nearest(s.topo, target)
	if i < 0 {
		return -1
	}
	return int(slot)
}

// NewRouter returns routing scratch pinned to this snapshot. The
// returned router is a *SnapshotRouter; Rebind moves it to a newer
// epoch without allocating, which is how serving loops follow a
// Publisher while staying allocation-free.
func (s *Snapshot) NewRouter() Router { return &SnapshotRouter{s: s} }

// SnapshotRouter routes greedily against one pinned Snapshot. It holds
// no per-route scratch, so Route performs zero heap allocations; it is
// still not safe for concurrent use (hold one per goroutine), but any
// number of routers may share one Snapshot. For snapshots that delegate
// to a retained source overlay (see Snapshot.src) the inner router is
// built lazily once per pinned snapshot — allocation-free within an
// epoch.
type SnapshotRouter struct {
	s       *Snapshot
	inner   Router    // delegated router, for snapshots with a src
	innerOf *Snapshot // snapshot the inner router was built for

	// Observability state, bound lazily to the pinned snapshot's hooks.
	// All nil/zero — and one nil check per Route — when serving an
	// uninstrumented snapshot.
	obsBinding
}

// Rebind pins the router to a (newer) snapshot. Allocation-free (for
// delegating snapshots, until the first Route on the new epoch).
func (r *SnapshotRouter) Rebind(s *Snapshot) { r.s = s }

// Pinned returns the snapshot the router currently routes against.
func (r *SnapshotRouter) Pinned() *Snapshot { return r.s }

// Route implements Router with the same greedy rule as the static
// small-world router: forward to the out-neighbour closest to the
// target (exact-tie arc-advance tie-break), stop when no neighbour
// improves. A source outside the snapshot's population — possible when
// the query was drawn against a different epoch — fails cleanly with
// Arrived false rather than routing from an arbitrary slot.
func (r *SnapshotRouter) Route(src int, target keyspace.Key) Result {
	if r.s.obs == nil {
		return r.route(src, target, nil)
	}
	return r.routeObserved(src, target)
}

// route is the uninstrumented core Route body; tr, when non-nil, is the
// sampled trace the inner walk appends hop spans to.
func (r *SnapshotRouter) route(src int, target keyspace.Key, tr *obs.Trace) Result {
	s := r.s
	if src < 0 || src >= s.keys.n {
		return Result{Dest: -1}
	}
	if s.faults != nil && s.faults.dead[src] {
		// A crashed node originates nothing; fail cleanly rather than
		// routing on a dead peer's behalf.
		return Result{Dest: -1}
	}
	if s.src != nil {
		// Delegated walk: queries/hops/outcomes still count in
		// routeObserved, but hop spans exist only on the walk below —
		// the source router is opaque here.
		if r.innerOf != s {
			r.inner = s.src.NewRouter()
			r.innerOf = s
		}
		return r.inner.Route(src, target)
	}
	return r.walk(src, target, tr)
}

// routeObserved routes against an instrumented snapshot: counters,
// hop histogram and 1-in-N trace sampling around the same core walk.
// Outlined from Route so the uninstrumented path pays one nil check.
func (r *SnapshotRouter) routeObserved(src int, target keyspace.Key) Result {
	h := r.s.obs
	if h != r.hooks {
		r.bind(h)
	}
	tr := r.sampler.Start("route", src, float64(target), 0)
	res := r.route(src, target, tr)
	if reg := h.reg; reg != nil {
		reg.RouteQueries.Inc(r.hint)
		reg.RouteHops.Add(r.hint, uint64(res.Hops))
		if res.Arrived {
			reg.HopsPerQuery.Observe(float64(res.Hops))
		} else {
			reg.RouteFailures.Inc(r.hint)
		}
	}
	if tr != nil {
		outcome := "arrived"
		if !res.Arrived {
			outcome = "stopped"
		}
		h.tracer.Finish(tr, float64(res.Hops), outcome)
	}
	return res
}

// walk is the snapshot's greedy route loop: step until no live
// neighbour improves, appending hop spans to tr when it is sampled.
func (r *SnapshotRouter) walk(src int, target keyspace.Key, tr *obs.Trace) Result {
	s := r.s
	cur := src
	dCur := s.topo.Distance(s.keys.At(cur), target)
	guard := s.GreedyGuard()
	hops := 0
	for ; hops < guard; hops++ {
		best, bestD, bestJ := s.step(cur, dCur, target)
		if best == -1 {
			break
		}
		tr.Hop(float64(hops), 1, int32(best), bestJ, 0, obs.SpanHop, bestD)
		cur, dCur = best, bestD
	}
	return Result{Hops: hops, Dest: cur, Arrived: s.GreedyArrived(dCur, target)}
}

// step is the snapshot's one greedy candidate scan, shared by
// SnapshotRouter's walk and the stepwise GreedyStep API the sharded
// serving plane drives hop by hop. It scans cur's mask-live
// out-neighbours with Topology.Improves and returns the winner (its
// index, its distance to target, and its position j in cur's row), or
// best == -1 when none improves on dCur. Both executors run this same
// scan on the same float state, which is what the sharded bit-identity
// contract requires.
func (s *Snapshot) step(cur int, dCur float64, target keyspace.Key) (best int, bestD float64, bestJ int) {
	topo, spine := s.topo, s.keys.spine
	var deadMask []bool
	if s.faults != nil {
		deadMask = s.faults.dead
	}
	best, bestD, bestJ = -1, dCur, -1
	bestKey := spine[cur>>keyChunkShift][cur&keyChunkMask]
	for j, v := range s.adj.Row(cur) {
		vKey := spine[v>>keyChunkShift][v&keyChunkMask]
		d := topo.Distance(vKey, target)
		// The mask test runs only on improving candidates, off the common
		// path.
		if !topo.Improves(bestKey, vKey, target, d, bestD) || deadMask != nil && deadMask[v] {
			continue
		}
		best, bestD, bestJ, bestKey = int(v), d, j, vKey
	}
	return best, bestD, bestJ
}

// The Greedy* methods expose the snapshot's routing walk one hop at a
// time, for executors that move a query between processes mid-route —
// the sharded serving plane hands (cur, dCur) across a wire between
// steps. The contract: a walk driven as
//
//	d, ok := s.GreedyInit(src, target)
//	for hops := 0; ok && hops < s.GreedyGuard(); {
//		next, dNext := s.GreedyStep(cur, dCur, target)
//		if next == -1 { break }
//		hops++; cur, dCur = next, dNext
//	}
//	arrived := s.GreedyArrived(dCur, target)
//
// produces bit-identical (dest, hops, arrived) to SnapshotRouter.Route
// on the same snapshot, because both run the same step on the same
// float state. dCur must be carried exactly (transports use
// the IEEE bit pattern, wire.AppendF64) — re-deriving it from the
// current node is equivalent, but carrying it keeps the step O(degree)
// with no re-read.

// GreedyInit begins a stepwise walk from src: it returns src's
// distance to target and ok=false when the walk cannot start — src
// outside the population or masked dead — which corresponds to
// Route's clean Result{Dest: -1} failure. Delegated snapshots (see
// Delegated) cannot be stepped.
func (s *Snapshot) GreedyInit(src int, target keyspace.Key) (d float64, ok bool) {
	if src < 0 || src >= s.keys.n || s.src != nil {
		return 0, false
	}
	if s.faults != nil && s.faults.dead[src] {
		return 0, false
	}
	return s.topo.Distance(s.keys.At(src), target), true
}

// GreedyStep advances one hop: the best improving live neighbour of
// cur, or next == -1 when the walk has reached its local minimum. dCur
// must be the value the previous step (or GreedyInit) returned.
func (s *Snapshot) GreedyStep(cur int, dCur float64, target keyspace.Key) (next int, dNext float64) {
	next, dNext, _ = s.step(cur, dCur, target)
	return next, dNext
}

// GreedyGuard is the walk's hop bound, identical to Route's: a query
// may take at most 2·N improving steps.
func (s *Snapshot) GreedyGuard() int { return 2 * s.keys.n }

// Delegated reports whether this snapshot routes through a retained
// source overlay (Chord, Pastry — directional rules the captured rows
// cannot express greedily). Delegated snapshots route only through
// NewRouter; the stepwise Greedy API refuses them.
func (s *Snapshot) Delegated() bool { return s.src != nil }

// GreedyArrived reports whether a walk that stopped at distance d
// counts as delivered: d is minimal over the population — over the
// mask-live population when the snapshot carries a fault mask (the
// responsible node itself may be dead; stopping at its closest live
// neighbour is then a correct delivery).
func (s *Snapshot) GreedyArrived(d float64, target keyspace.Key) bool {
	nearest, slot, dn := s.rank.nearest(s.topo, target)
	if nearest < 0 {
		return false
	}
	if s.faults == nil || !s.faults.dead[slot] {
		return d <= dn
	}
	return d <= s.nearestLiveDistance(target, nearest, nil)
}

// nearestLiveDistance returns the distance from target to the closest
// live node, or -1 when no node is live. A node is live unless the
// snapshot's mask marks it dead or oracle (when non-nil) reports it
// crashed. The scan runs rank-outward from start, the nearest rank,
// and each direction stops at its first live hit: arc displacement
// grows monotonically per direction, so the true nearest live node is
// the closer of the two first hits, and the cost is the dead run around
// the target, not N.
func (s *Snapshot) nearestLiveDistance(target keyspace.Key, start int, oracle deadOracle) float64 {
	r := s.rank
	n := r.n
	best := -1.0
	if n == 0 {
		return best
	}
	at := r.at(start)
	// Ascending-key direction (clockwise on the ring), then descending.
	for _, dir := range [2]int{1, -1} {
		p := at
		for step, i := 0, start; step < n; step++ {
			k := r.key(p)
			if !s.Dead(int(r.slot(p))) && (oracle == nil || !oracle.Dead(k)) {
				if d := s.topo.Distance(k, target); best < 0 || d < best {
					best = d
				}
				break
			}
			if i += dir; i == n || i < 0 {
				if s.topo != keyspace.Ring {
					break
				}
				i = (i + n) % n
			}
			if dir > 0 {
				p = r.next(p)
			} else {
				p = r.prev(p)
			}
		}
	}
	return best
}
