package smallworld

import (
	"math"

	"smallworld/keyspace"
)

// Router carries the scratch buffers of greedy routing so that the hot
// path runs with zero steady-state heap allocations: the visited-path
// buffer and the backtracking mark table are allocated once and reused
// across calls. A Router is bound to one network and is NOT safe for
// concurrent use — experiments create one per worker goroutine
// (exp.routeHops does exactly that).
//
// Routes returned by a Router alias its scratch buffers: the Path slice
// is valid only until the next call on the same Router. Callers that
// need the path to outlive the call must copy it (the allocating
// Network.RouteGreedy wrappers do).
type Router struct {
	nw   *Network
	path []int
	mark []int32 // epoch marks: mark[v] == gen means seen this generation
	gen  int32

	// Backtracking scratch (see faults.go): the DFS frame stack and the
	// flat buffer its per-frame candidate windows slice into.
	btFrames []btFrame
	btCands  []int32
}

// nextGen sizes the mark table to the network and opens a fresh epoch:
// after it returns, mark[v] == gen holds for no node. Backtracking opens
// one epoch per route, which is what keeps it allocation-free.
func (r *Router) nextGen() int32 {
	if len(r.mark) < r.nw.cfg.N {
		r.mark = make([]int32, r.nw.cfg.N)
		r.gen = 0
	}
	if r.gen == math.MaxInt32 { // epoch wrap: reset the stamp table
		clear(r.mark)
		r.gen = 0
	}
	r.gen++
	return r.gen
}

// NewRouter returns a router with empty scratch bound to nw.
func (nw *Network) NewRouter() *Router {
	return &Router{nw: nw}
}

// router fetches a pooled Router for the allocating convenience API.
func (nw *Network) router() *Router {
	if r, ok := nw.routers.Get().(*Router); ok {
		return r
	}
	return nw.NewRouter()
}

// RouteGreedy routes a request from node src to the peer responsible for
// target using greedy distance-minimising routing: each hop forwards to
// the out-neighbour closest to the target, stopping when no out-neighbour
// improves on the current node (Section 3's routing rule). With intact
// neighbouring edges the stopping node is exactly the network-closest
// node to the target.
func (r *Router) RouteGreedy(src int, target keyspace.Key) Route {
	return r.walk(src, target, nil)
}

// walk is the static network's one greedy scan, shared by RouteGreedy
// and RouteGreedyAvoiding: from src, forward to the out-neighbour that
// Topology.Improves on the current position until none does, skipping
// candidates marked in dead (nil for an intact network); Arrived is
// judged by Network.arrived against the same mask. The scan stays
// inline — one call per route, not per hop — so each candidate costs
// the flat CSR load, the inlined distance and the inlined rule.
func (r *Router) walk(src int, target keyspace.Key, dead []bool) Route {
	nw := r.nw
	topo := nw.cfg.Topology
	keys, csr := nw.keys, nw.csr
	cur := src
	r.path = append(r.path[:0], src)
	dCur := topo.Distance(keys[cur], target)
	guard := maxHopsFor(nw.cfg.N)
	for hops := 0; ; hops++ {
		if hops >= guard {
			return Route{Path: r.path, Truncated: true}
		}
		best, bestD := -1, dCur
		bestKey := keys[cur]
		for _, v := range csr.Out(cur) {
			vKey := keys[v]
			d := topo.Distance(vKey, target)
			// The dead test runs only on improving candidates, off the
			// common path.
			if !topo.Improves(bestKey, vKey, target, d, bestD) || dead != nil && dead[v] {
				continue
			}
			best, bestD, bestKey = int(v), d, vKey
		}
		if best == -1 {
			break
		}
		cur, dCur = best, bestD
		r.path = append(r.path, cur)
	}
	return Route{Path: r.path, Arrived: nw.arrived(cur, target, dead)}
}
