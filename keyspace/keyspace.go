// Package keyspace models the one-dimensional identifier space R of the
// paper: the unit interval [0,1) in which peers obtain identifiers, either
// with interval (line) or ring topology. It provides the distance function
// d(u,v) of Eq. (1), interval arithmetic, and sorted point-set search
// helpers used by all overlay constructions.
package keyspace

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Key is an identifier in the unit key space [0,1).
type Key float64

// Valid reports whether k lies in [0,1).
func (k Key) Valid() bool { return k >= 0 && k < 1 && !math.IsNaN(float64(k)) }

// Wrap maps an arbitrary real onto the unit ring [0,1) by taking the
// fractional part (mod 1). Negative inputs wrap from the top.
func Wrap(x float64) Key {
	f := x - math.Floor(x)
	if f >= 1 { // guard against floating point edge (x just below an integer)
		f = 0
	}
	return Key(f)
}

// Clamp restricts x to the half-open unit interval [0,1), clamping
// out-of-range values to the nearest representable endpoint.
func Clamp(x float64) Key {
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	if x >= 1 {
		return Key(math.Nextafter(1, 0))
	}
	return Key(x)
}

// Topology selects the geometry of the key space.
type Topology int

const (
	// Line is the half-open interval [0,1): d(u,v) = |u-v|, exactly the
	// metric of Eq. (1) in the paper.
	Line Topology = iota
	// Ring is the unit circle: d(u,v) = min(|u-v|, 1-|u-v|). The paper
	// proves the interval case and notes the ring case is analogous.
	Ring
)

// String returns the topology name.
func (t Topology) String() string {
	switch t {
	case Line:
		return "line"
	case Ring:
		return "ring"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// Distance returns d(u,v) under the topology.
func (t Topology) Distance(u, v Key) float64 {
	d := math.Abs(float64(u) - float64(v))
	if t == Ring && d > 0.5 {
		d = 1 - d
	}
	return d
}

// MaxDistance returns the diameter of the key space: 1 on the line,
// 1/2 on the ring.
func (t Topology) MaxDistance() float64 {
	if t == Ring {
		return 0.5
	}
	return 1
}

// Advances reports whether next lies strictly between from and target
// along the routing arc (the direct segment on the line, the shorter arc
// on the ring), or exactly on target. It uses only order comparisons and
// exact differences of nearby keys, so it stays reliable even when the
// *distances* of from and next to a far-away target are identical after
// float64 rounding — the tie-break greedy routing needs in extremely
// skewed key spaces where many peers share the same rounded distance.
func (t Topology) Advances(from, next, target Key) bool {
	if from == target || next == from {
		return false
	}
	if next == target {
		return true
	}
	if t == Line {
		if from < target {
			return from < next && next < target
		}
		return target < next && next < from
	}
	// Ring: direction of travel is the shorter arc from `from` to target.
	cw := float64(Wrap(float64(target) - float64(from)))
	if cw <= 0.5 {
		// Clockwise: next must sit on the open arc (from, target).
		na := float64(Wrap(float64(next) - float64(from)))
		return na > 0 && na < cw
	}
	// Counter-clockwise: next must sit on the open arc (target, from).
	an := float64(Wrap(float64(from) - float64(next)))
	return an > 0 && an < 1-cw
}

// Improves is the greedy routing rule of Section 3: moving from best
// (at distance dBest from target) to candidate v (at distance dv)
// improves the position when v is strictly closer, or — on an exact
// float64 distance tie — when v advances along the arc toward target.
// The tie-break matters in extremely skewed key spaces, where whole
// clusters of peers collapse to one rounded distance and plain greedy
// would stall; each tie-move strictly advances along the arc, so a walk
// that only takes improving moves still terminates. Every greedy scan
// in the repository decides through this one rule; it is small enough
// to inline into their inner loops.
func (t Topology) Improves(best, v, target Key, dv, dBest float64) bool {
	// Reject farther (or NaN) candidates with a return of their own: once
	// inlined, the common case is then a compare-and-branch straight back
	// to the scan loop instead of a materialised bool.
	if !(dv <= dBest) {
		return false
	}
	return dv < dBest || t.Advances(best, v, target)
}

// Interval is a half-open key range [Lo, Hi). On the ring an interval with
// Lo > Hi wraps through 1.0 (e.g. [0.9, 0.1) covers 0.9..1 and 0..0.1).
type Interval struct {
	Lo, Hi Key
}

// Contains reports whether k lies in the half-open interval.
func (iv Interval) Contains(k Key) bool {
	if iv.Lo <= iv.Hi {
		return k >= iv.Lo && k < iv.Hi
	}
	// wrapping interval
	return k >= iv.Lo || k < iv.Hi
}

// Length returns the total arc length of the interval.
func (iv Interval) Length() float64 {
	if iv.Lo <= iv.Hi {
		return float64(iv.Hi) - float64(iv.Lo)
	}
	return 1 - float64(iv.Lo) + float64(iv.Hi)
}

// Empty reports whether the interval has zero length.
func (iv Interval) Empty() bool { return iv.Lo == iv.Hi }

// String formats the interval.
func (iv Interval) String() string { return fmt.Sprintf("[%.6f,%.6f)", iv.Lo, iv.Hi) }

// Points is an ascending sorted slice of keys with search helpers. It is
// the canonical "who lives where" index used by graph constructors to
// resolve a sampled key to the closest peer.
type Points []Key

// SortPoints sorts ks ascending in place and returns it as Points.
func SortPoints(ks []Key) Points {
	slices.Sort(ks)
	return Points(ks)
}

// Successor returns the index of the first point >= x, wrapping to 0 when x
// is beyond the last point (ring semantics: the successor of the top of the
// space is the first node).
func (p Points) Successor(x Key) int {
	i := sort.Search(len(p), func(i int) bool { return p[i] >= x })
	if i == len(p) {
		return 0
	}
	return i
}

// Predecessor returns the index of the last point < x, wrapping to the last
// index when x is at or below the first point.
func (p Points) Predecessor(x Key) int {
	i := sort.Search(len(p), func(i int) bool { return p[i] >= x })
	if i == 0 {
		return len(p) - 1
	}
	return i - 1
}

// Nearest returns the index of the point closest to x under topology t,
// breaking ties toward the lower index.
func (p Points) Nearest(t Topology, x Key) int {
	if len(p) == 0 {
		return -1
	}
	succ := p.Successor(x)
	pred := p.Predecessor(x)
	ds, dp := t.Distance(p[succ], x), t.Distance(p[pred], x)
	switch {
	case dp < ds:
		return pred
	case ds < dp:
		return succ
	default:
		if pred < succ {
			return pred
		}
		return succ
	}
}

// NearestExcluding returns the index of the point closest to x that is not
// the index self, or -1 if p has fewer than two points.
func (p Points) NearestExcluding(t Topology, x Key, self int) int {
	if len(p) < 2 {
		return -1
	}
	return p.NearestExcludingFrom(t, x, self, p.Successor(x))
}

// NearestExcludingFrom is NearestExcluding for a caller that already
// holds start = p.Successor(x). The nearest point other than self is
// among the three from start upward and the three below it, so only
// those six are probed; the least (distance, index) pair wins, the lower
// index on a tie. It returns -1 when no probe is nearer than +Inf: then
// x is NaN, or infinite on the line, and so is every distance to x.
func (p Points) NearestExcludingFrom(t Topology, x Key, self, start int) int {
	n := len(p)
	if n < 2 {
		return -1
	}
	best, bestD := -1, math.Inf(1)
	up, down := start, start
	for step := 0; step < 3; step++ {
		if up != self {
			if d := t.Distance(p[up], x); d < bestD || (d == bestD && up < best) {
				best, bestD = up, d
			}
		}
		if down--; down < 0 {
			down += n
		}
		if down != self {
			if d := t.Distance(p[down], x); d < bestD || (d == bestD && down < best) {
				best, bestD = down, d
			}
		}
		if up++; up == n {
			up = 0
		}
	}
	return best
}
