package smallworld

import (
	"smallworld/keyspace"
)

// Route records one greedy routing attempt.
type Route struct {
	// Path lists the visited node indices, starting at the source. Routes
	// obtained from a Router alias the router's scratch buffer; routes
	// from the Network-level convenience methods own their path.
	Path []int
	// Arrived reports whether the route terminated at a node whose
	// distance to the target equals the minimum over the whole network
	// (when two peers straddle the target at exactly equal distance,
	// either is a correct destination).
	Arrived bool
	// Truncated reports that the hop guard fired (should never happen
	// with intact neighbouring edges).
	Truncated bool
}

// Hops returns the number of overlay hops taken.
func (r Route) Hops() int { return len(r.Path) - 1 }

// maxHopsFor bounds route length defensively. Greedy routing never
// revisits a node (its lexicographic potential strictly decreases), so n
// hops is the true worst case; the guard allows twice that.
func maxHopsFor(n int) int { return 2 * n }

// RouteGreedy is the allocating convenience form of Router.RouteGreedy:
// it borrows a pooled router and returns a route whose path the caller
// owns. Hot loops that route millions of queries should hold a Router
// per goroutine instead (zero steady-state allocations).
func (nw *Network) RouteGreedy(src int, target keyspace.Key) Route {
	r := nw.router()
	rt := r.RouteGreedy(src, target)
	rt.Path = append([]int(nil), rt.Path...)
	nw.routers.Put(r)
	return rt
}

// RouteToNode is a convenience wrapper routing to another node's
// identifier.
func (nw *Network) RouteToNode(src, dst int) Route {
	return nw.RouteGreedy(src, nw.keys[dst])
}

// arrived reports whether node u is a correct destination for target:
// live, and no farther from target than the closest node not marked in
// dead (than every node when dead is nil). Comparing distances rather
// than node identities counts either peer of an exact tie as arrived.
func (nw *Network) arrived(u int, target keyspace.Key, dead []bool) bool {
	if dead != nil && dead[u] {
		return false
	}
	c := nw.closestLive(target, dead)
	topo := nw.cfg.Topology
	return c >= 0 && topo.Distance(nw.keys[u], target) <= topo.Distance(nw.keys[c], target)
}
