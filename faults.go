package smallworld

import (
	"smallworld/keyspace"
	"smallworld/xrand"
)

// The paper closes by listing "models that can take into account an
// unstable P2P environment (nodes are allowed to fail)" as open work.
// This file provides that model for the static overlay: a fixed mask of
// unreachable nodes (crashed but not yet repaired, so other peers still
// hold stale links to them) over the same flat CSR every router reads,
// with two policies — plain greedy that skips dead candidates, and
// greedy with backtracking that explores alternatives when a live local
// minimum has no live improvement to offer.

// FailSet marks a subset of nodes as crashed: one bool per node, drawn
// once and never changed. Dead(u) is one load on the routing hot path.
// Churning fault runs use netmodel's identifier-hashed classes instead.
type FailSet struct {
	dead []bool
}

// NewFailSet marks each node dead independently with probability frac,
// using r: one Bool per node, in ascending node order, which is part of
// the replay format. The source and destination of experiments can be
// re-rolled by the caller via Dead.
func NewFailSet(nw *Network, r *xrand.Stream, frac float64) *FailSet {
	fs := &FailSet{dead: make([]bool, nw.N())}
	for i := range fs.dead {
		fs.dead[i] = r.Bool(frac)
	}
	return fs
}

// Dead reports whether node u is crashed.
func (fs *FailSet) Dead(u int) bool { return fs.dead[u] }

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
// set is the epoch-marked table, and the per-frame candidate lists are
// windows of one flat buffer — so the steady state allocates nothing.
// The returned Path aliases the router's scratch.
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
