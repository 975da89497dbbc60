package keyspace

// Responsibility cells. This file is the single definition of "who owns
// what" in the key space: the store's replica placement and scans and
// the incremental writer's ownership events all read it, so a key can
// never be attributed to different owners by different layers.

// MidpointRing returns the midpoint of the clockwise arc from a to b.
// Duplicate identifiers yield a itself — the zero-width-cell convention
// Cell documents. The arc is b−a, plus 1 when that is negative, and is
// not wrapped: when b sits one ulp below a, the arc 1−(a−b) rounds to
// 1, a full turn, and must not collapse to the zero arc of a duplicate.
func MidpointRing(a, b Key) Key {
	if a == b {
		return a
	}
	arc := float64(b) - float64(a)
	if arc < 0 {
		arc++
	}
	return Wrap(float64(a) + arc/2)
}

// Cell returns the responsibility region of the i-th point of the
// ascending-sorted population p: the set of keys closer to p[i] than to
// any other point, i.e. the Voronoi cell between the midpoints toward
// its rank neighbours. On the line the first and last cells extend to
// the ends of the key space; the last cell's Hi is exactly 1, which
// covers the top end inclusively (every valid Key is < 1) without
// leaking a value > 1 into Interval.Length or coverage arithmetic.
//
// Degenerate spacings are well defined rather than accidental: when two
// neighbouring identifiers coincide (or sit within one float64 ulp, so
// the midpoint rounds onto a key), the half-open boundaries make the
// upper of the two own the shared point and the lower cell zero-width —
// cells always tile the key space exactly once, and exactly one point
// is responsible for any key. A sole point (len(p) = 1) owns the whole
// space. An out-of-range index yields the empty interval.
func Cell(t Topology, p Points, i int) Interval {
	n := len(p)
	if n == 0 || i < 0 || i >= n {
		return Interval{}
	}
	if t == Ring {
		if n == 1 {
			return Interval{Lo: 0, Hi: 1}
		}
		prev := p[(i+n-1)%n]
		next := p[(i+1)%n]
		return Interval{Lo: MidpointRing(prev, p[i]), Hi: MidpointRing(p[i], next)}
	}
	var lo, hi Key
	if i == 0 {
		lo = 0
	} else {
		lo = Key((float64(p[i-1]) + float64(p[i])) / 2)
	}
	if i == n-1 {
		hi = 1 // top end inclusive: every valid key is < 1
	} else {
		hi = Key((float64(p[i]) + float64(p[i+1])) / 2)
	}
	return Interval{Lo: lo, Hi: hi}
}

// Owner returns the index of the point whose Cell contains k — the
// unique owner, since cells tile the key space exactly once. It probes
// the rank neighbours of k's insertion position first (the owner in
// every non-degenerate spacing) and falls back to a linear cell scan
// when midpoint rounding has produced zero-width cells around k.
// Returns -1 for an empty population.
func Owner(t Topology, p Points, k Key) int {
	n := len(p)
	if n == 0 {
		return -1
	}
	if n == 1 {
		return 0
	}
	if pred := p.Predecessor(k); Cell(t, p, pred).Contains(k) {
		return pred
	}
	if succ := p.Successor(k); Cell(t, p, succ).Contains(k) {
		return succ
	}
	for i := 0; i < n; i++ { // degenerate spacing: cells tile, so the scan finds the owner
		if Cell(t, p, i).Contains(k) {
			return i
		}
	}
	return p.Nearest(t, k) // unreachable: cells tile the space
}
