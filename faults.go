package smallworld

import (
	"smallworld/keyspace"
	"smallworld/xrand"
)

// The paper closes by listing "models that can take into account an
// unstable P2P environment (nodes are allowed to fail)" as open work.
// This file provides that model: routing across a network in which a
// subset of nodes is unreachable (crashed but not yet repaired, so other
// peers still hold stale links to them), with two policies — plain
// greedy that skips dead candidates, and greedy with backtracking that
// explores alternatives when a live local minimum has no live
// improvement to offer.

// FailSet marks a subset of nodes as crashed. The hot-path query is
// slot-indexed (Dead(u) is one bool load), but every mark is *pinned to
// the identifier* the slot held when it was marked: dynamic overlays
// rename slots under churn (overlaynet.NewIncremental's leave path
// moves the last slot into the hole a departure opens), and a mark
// that lived only on the slot id would silently migrate to whichever
// live node inherits the slot. After any membership change, Sync
// remaps the marks onto the new slot layout by identifier.
type FailSet struct {
	dead []bool
	n    int

	keys     []keyspace.Key // identifier per slot at the last sync
	deadKeys []keyspace.Key // identifiers of crashed nodes, ascending
}

// NewFailSet marks each node dead independently with probability frac,
// using r. The source and destination of experiments can be re-rolled by
// the caller via Alive.
func NewFailSet(nw *Network, r *xrand.Stream, frac float64) *FailSet {
	return NewFailSetKeys(nw.Keys(), r, frac)
}

// NewFailSetKeys is NewFailSet over an explicit identifier slice —
// the constructor for dynamic overlays, whose population is not a
// *Network. The draw order (one Bool per slot, ascending) is part of
// the replay format shared with NewFailSet.
func NewFailSetKeys(keys []keyspace.Key, r *xrand.Stream, frac float64) *FailSet {
	fs := &FailSet{
		dead: make([]bool, len(keys)),
		keys: append([]keyspace.Key(nil), keys...),
	}
	for i := range fs.dead {
		if r.Bool(frac) {
			fs.dead[i] = true
			fs.n++
		}
	}
	fs.deadKeys = fs.deadKeys[:0]
	for i, d := range fs.dead {
		if d {
			fs.deadKeys = append(fs.deadKeys, fs.keys[i])
		}
	}
	sortKeys(fs.deadKeys)
	return fs
}

// Dead reports whether node u is crashed.
func (fs *FailSet) Dead(u int) bool { return fs.dead[u] }

// Alive reports whether node u is reachable.
func (fs *FailSet) Alive(u int) bool { return !fs.dead[u] }

// CountDead returns the number of crashed nodes.
func (fs *FailSet) CountDead() int { return fs.n }

// Fail marks node u crashed (a no-op when it already is).
func (fs *FailSet) Fail(u int) {
	if fs.dead[u] {
		return
	}
	fs.dead[u] = true
	fs.n++
	fs.insertDeadKey(fs.keys[u])
}

// Revive clears the failure of node u (used by tests).
func (fs *FailSet) Revive(u int) {
	if fs.dead[u] {
		fs.dead[u] = false
		fs.n--
		fs.removeDeadKey(fs.keys[u])
	}
}

// Sync remaps the fail marks onto a new slot layout: slot u is dead
// iff keys[u] is a marked identifier. Call it after every membership
// change of a dynamic overlay, passing the overlay's current Keys().
// Marked identifiers no longer present (the crashed node finally left
// the population) are forgotten.
func (fs *FailSet) Sync(keys []keyspace.Key) {
	if cap(fs.dead) >= len(keys) {
		fs.dead = fs.dead[:len(keys)]
		for i := range fs.dead {
			fs.dead[i] = false
		}
	} else {
		fs.dead = make([]bool, len(keys))
	}
	fs.keys = append(fs.keys[:0], keys...)
	fs.n = 0
	old := fs.deadKeys
	for u, k := range fs.keys {
		if searchKeys(old, k) >= 0 {
			fs.dead[u] = true
			fs.n++
		}
	}
	fresh := make([]keyspace.Key, 0, fs.n)
	for u, d := range fs.dead {
		if d {
			fresh = append(fresh, fs.keys[u])
		}
	}
	sortKeys(fresh)
	fs.deadKeys = fresh
}

// insertDeadKey adds k to the sorted marked-identifier set.
func (fs *FailSet) insertDeadKey(k keyspace.Key) {
	i := lowerBound(fs.deadKeys, k)
	if i < len(fs.deadKeys) && fs.deadKeys[i] == k {
		return
	}
	fs.deadKeys = append(fs.deadKeys, 0)
	copy(fs.deadKeys[i+1:], fs.deadKeys[i:])
	fs.deadKeys[i] = k
}

// removeDeadKey deletes k from the sorted marked-identifier set.
func (fs *FailSet) removeDeadKey(k keyspace.Key) {
	i := lowerBound(fs.deadKeys, k)
	if i < len(fs.deadKeys) && fs.deadKeys[i] == k {
		fs.deadKeys = append(fs.deadKeys[:i], fs.deadKeys[i+1:]...)
	}
}

// lowerBound returns the first index in the ascending slice whose key
// is >= k.
func lowerBound(ks []keyspace.Key, k keyspace.Key) int {
	lo, hi := 0, len(ks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ks[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchKeys returns k's index in the ascending slice, or -1.
func searchKeys(ks []keyspace.Key, k keyspace.Key) int {
	i := lowerBound(ks, k)
	if i < len(ks) && ks[i] == k {
		return i
	}
	return -1
}

// sortKeys sorts identifiers ascending (insertion sort: fail sets are
// built once and the marked subset is small).
func sortKeys(ks []keyspace.Key) {
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
}

// ClosestLive returns the live node closest to target, or -1 when every
// node is dead.
func (nw *Network) ClosestLive(target keyspace.Key, fs *FailSet) int {
	return nw.closestLive(target, fs.dead)
}

// closestLive returns the node closest to target among those not
// marked in dead, or -1 when every node is. With dead nil it is
// ClosestNode's binary search; otherwise a scan of the live nodes.
func (nw *Network) closestLive(target keyspace.Key, dead []bool) int {
	if dead == nil {
		return nw.ClosestNode(target)
	}
	best, bestD := -1, nw.cfg.Topology.MaxDistance()+1
	for u, k := range nw.keys {
		if dead[u] {
			continue
		}
		if d := nw.cfg.Topology.Distance(k, target); d < bestD {
			best, bestD = u, d
		}
	}
	return best
}

// RouteGreedyAvoiding routes greedily while skipping crashed candidates.
// Without backtracking the route fails whenever it reaches a live node
// none of whose live out-neighbours improves on it — the failure mode
// that motivates redundancy in the routing table. It is RouteGreedy's
// walk with fs's dead mask; arrival is judged against the closest live
// node. Like every Router route, the returned Path aliases the router's
// scratch.
func (r *Router) RouteGreedyAvoiding(src int, target keyspace.Key, fs *FailSet) Route {
	return r.walk(src, target, fs.dead)
}

// RouteGreedyAvoiding is the allocating convenience form of
// Router.RouteGreedyAvoiding; see RouteGreedy for the ownership
// contract.
func (nw *Network) RouteGreedyAvoiding(src int, target keyspace.Key, fs *FailSet) Route {
	r := nw.router()
	rt := r.RouteGreedyAvoiding(src, target, fs)
	rt.Path = append([]int(nil), rt.Path...)
	nw.routers.Put(r)
	return rt
}

// btFrame is one depth-first search frame of RouteBacktracking: the
// node, and its window [start, end) of not-yet-exhausted candidates in
// the router's flat candidate buffer (cur is the consume cursor).
type btFrame struct {
	node     int32
	cur, end int32
	start    int32
}

// RouteBacktracking routes with depth-first backtracking: candidates at
// each node are tried in greedy order, visited nodes are never re-
// entered, and when a node runs out of live unvisited candidates the
// query returns to where it came from (each return costs a hop, as it
// would in a deployed system). It reaches the live closest node whenever
// the live subgraph connects src to it.
//
// All search state lives on the router's reusable scratch: the visited
// set is the epoch-marked table shared with the NoN lookahead, and the
// per-frame candidate lists are windows of one flat buffer — so the
// steady state allocates nothing. The returned Path aliases the
// router's scratch.
func (r *Router) RouteBacktracking(src int, target keyspace.Key, fs *FailSet) Route {
	nw := r.nw
	topo := nw.cfg.Topology
	goal := nw.closestLive(target, fs.dead)
	r.path = append(r.path[:0], src)
	if goal == -1 {
		return Route{Path: r.path}
	}
	// The goal test compares distances, not node identities, so either
	// live peer of an exact tie counts as arrived (as in Network.arrived).
	goalD := topo.Distance(nw.keys[goal], target)
	gen := r.nextGen()
	mark := r.mark
	mark[src] = gen
	r.btCands = r.btCands[:0]
	r.btFrames = append(r.btFrames[:0], btFrame{node: int32(src), end: r.appendLiveCandidates(src, target, fs, gen)})
	guard := 4 * nw.cfg.N
	for len(r.btFrames) > 0 {
		if len(r.path) >= guard {
			return Route{Path: r.path, Truncated: true}
		}
		top := &r.btFrames[len(r.btFrames)-1]
		if !fs.dead[top.node] && topo.Distance(nw.keys[top.node], target) <= goalD {
			return Route{Path: r.path, Arrived: true}
		}
		// Advance to the next untried candidate.
		next := -1
		for top.cur < top.end {
			c := int(r.btCands[top.cur])
			top.cur++
			if mark[c] != gen {
				next = c
				break
			}
		}
		if next == -1 {
			// Exhausted: backtrack (one hop back to the previous node),
			// releasing the frame's candidate window.
			r.btCands = r.btCands[:top.start]
			r.btFrames = r.btFrames[:len(r.btFrames)-1]
			if len(r.btFrames) > 0 {
				r.path = append(r.path, int(r.btFrames[len(r.btFrames)-1].node))
			}
			continue
		}
		mark[next] = gen
		r.path = append(r.path, next)
		start := int32(len(r.btCands))
		r.btFrames = append(r.btFrames, btFrame{
			node: int32(next), cur: start, start: start,
			end: r.appendLiveCandidates(next, target, fs, gen),
		})
	}
	return Route{Path: r.path}
}

// RouteBacktracking is the allocating convenience form of
// Router.RouteBacktracking; see RouteGreedy for the ownership contract.
func (nw *Network) RouteBacktracking(src int, target keyspace.Key, fs *FailSet) Route {
	r := nw.router()
	rt := r.RouteBacktracking(src, target, fs)
	rt.Path = append([]int(nil), rt.Path...)
	nw.routers.Put(r)
	return rt
}

// appendLiveCandidates appends u's live, unvisited out-neighbours to the
// router's flat candidate buffer in ascending order of distance to the
// target (greedy preference order) and returns the window's end index.
func (r *Router) appendLiveCandidates(u int, target keyspace.Key, fs *FailSet, gen int32) int32 {
	nw := r.nw
	topo := nw.cfg.Topology
	start := len(r.btCands)
	for _, v := range nw.csr.Out(u) {
		if !fs.Dead(int(v)) && r.mark[v] != gen {
			r.btCands = append(r.btCands, v)
		}
	}
	// Insertion sort by target distance; candidate lists are short.
	cands := r.btCands[start:]
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			dj := topo.Distance(nw.keys[cands[j]], target)
			dp := topo.Distance(nw.keys[cands[j-1]], target)
			if dj < dp {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			} else {
				break
			}
		}
	}
	return int32(len(r.btCands))
}
