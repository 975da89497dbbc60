// Package pgrid implements a P-Grid-style overlay (Aberer, CoopIS 2001 —
// the paper's reference [1]): peers own the leaves of a binary trie over
// the key space [0,1), built by recursive midpoint splits until every
// leaf holds exactly one peer, and each peer keeps one randomized
// reference into the sibling subtree of every level of its path.
//
// Under a skewed key population the trie grows deep where peers crowd
// together, so peers there keep *more than logarithmic* routing state —
// precisely the cost the paper attributes to P-Grid's approach to skew
// ("peers require more than logarithmic routing states") while its
// randomized references keep the expected search cost logarithmic in N.
package pgrid

import (
	"fmt"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// maxDepth bounds trie depth; 52 levels exhaust float64 mantissa
// resolution of the unit interval.
const maxDepth = 52

// Network is a built P-Grid overlay.
type Network struct {
	keys  keyspace.Points
	paths [][]byte  // binary path of each peer's leaf (0/1 entries)
	refs  [][]int32 // refs[u][l] = peer in the sibling subtree at level l
}

// Config describes a P-Grid overlay.
type Config struct {
	// N is the number of peers (>= 2).
	N int
	// Dist is the identifier density (default uniform). Skewed densities
	// produce unbalanced tries, the case of interest.
	Dist dist.Distribution
	// Seed drives all randomness.
	Seed uint64
}

// Build constructs the trie and reference tables.
func Build(cfg Config) (*Network, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("pgrid: N = %d, need >= 2", cfg.N)
	}
	if cfg.Dist == nil {
		cfg.Dist = dist.Uniform{}
	}
	master := xrand.New(cfg.Seed)
	keys := dist.SampleN(cfg.Dist, master.Split(), cfg.N)
	pts := keyspace.SortPoints(keys)
	nw := &Network{
		keys:  pts,
		paths: make([][]byte, cfg.N),
		refs:  make([][]int32, cfg.N),
	}
	if err := nw.split(0, cfg.N, 0, 1, nil); err != nil {
		return nil, err
	}
	rng := master.Split()
	for u := range nw.refs {
		nw.refs[u] = make([]int32, len(nw.paths[u]))
		for l := range nw.refs[u] {
			lo, hi := nw.siblingRange(u, l)
			if hi > lo {
				nw.refs[u][l] = int32(lo + rng.Intn(hi-lo))
				continue
			}
			// Virtual split: the sibling half of the key space holds no
			// peer (all peers of this subtree share the bit). Keys that
			// branch there belong to the boundary peer of the populated
			// side, so reference it directly.
			pLo, pHi := nw.prefixRange(nw.paths[u][:l])
			if nw.paths[u][l] == 1 {
				// Empty region is on the left: its keys belong to the
				// leftmost peer of the populated subtree.
				nw.refs[u][l] = int32(pLo)
			} else {
				nw.refs[u][l] = int32(pHi - 1)
			}
		}
	}
	return nw, nil
}

// split recursively partitions the sorted peer range [lo, hi) owning the
// key interval [kLo, kHi) at its midpoint, extending the path prefix.
func (nw *Network) split(lo, hi int, kLo, kHi float64, prefix []byte) error {
	if hi-lo == 1 {
		nw.paths[lo] = append([]byte(nil), prefix...)
		return nil
	}
	if len(prefix) >= maxDepth {
		return fmt.Errorf("pgrid: trie deeper than %d levels; peers too clustered for float64 keys", maxDepth)
	}
	mid := (kLo + kHi) / 2
	// First peer with key >= mid, restricted to [lo, hi).
	cut := lo
	for cut < hi && float64(nw.keys[cut]) < mid {
		cut++
	}
	switch {
	case cut == lo:
		// All peers in the right half: the left half stays virtual and the
		// path extends with 1 without consuming a split.
		return nw.split(lo, hi, mid, kHi, append(prefix, 1))
	case cut == hi:
		return nw.split(lo, hi, kLo, mid, append(prefix, 0))
	default:
		if err := nw.split(lo, cut, kLo, mid, append(prefix, 0)); err != nil {
			return err
		}
		return nw.split(cut, hi, mid, kHi, append(prefix, 1))
	}
}

// siblingRange returns the [lo, hi) peer-index range of the subtree that
// is the sibling of peer u's path at level l (empty when the sibling half
// of the key space holds no peer). Because peers are sorted by key and
// paths are lexicographically ordered, every subtree is a contiguous
// index range.
func (nw *Network) siblingRange(u, l int) (lo, hi int) {
	// Sibling prefix: u's path up to l with bit l flipped.
	want := make([]byte, l+1)
	copy(want, nw.paths[u][:l])
	want[l] = 1 - nw.paths[u][l]
	return nw.prefixRange(want)
}

// prefixRange returns the contiguous peer range whose paths start with
// the given prefix (empty range if none — cannot happen for sibling
// prefixes produced by split).
func (nw *Network) prefixRange(prefix []byte) (int, int) {
	lo := 0
	hi := len(nw.paths)
	// Lower bound: first path >= prefix.
	for lo < hi {
		m := (lo + hi) / 2
		if pathLess(nw.paths[m], prefix) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	start := lo
	end := start
	for end < len(nw.paths) && hasPrefix(nw.paths[end], prefix) {
		end++
	}
	return start, end
}

// pathLess compares paths lexicographically with the convention that a
// proper prefix sorts before its extensions.
func pathLess(a, b []byte) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func hasPrefix(path, prefix []byte) bool {
	if len(path) < len(prefix) {
		return false
	}
	for i, b := range prefix {
		if path[i] != b {
			return false
		}
	}
	return true
}

// N returns the number of peers.
func (nw *Network) N() int { return len(nw.paths) }

// Key returns peer u's identifier.
func (nw *Network) Key(u int) keyspace.Key { return nw.keys[u] }

// TableSize returns the number of routing entries peer u keeps.
func (nw *Network) TableSize(u int) int { return len(nw.refs[u]) }

// Links returns the out-neighbours a query at peer u may be forwarded
// to: the per-level references, with duplicates and self-references (the
// virtual-split boundary case) removed. The caller owns the returned
// slice.
func (nw *Network) Links(u int) []int32 {
	out := make([]int32, 0, len(nw.refs[u]))
	for _, e := range nw.refs[u] {
		if int(e) != u && !containsRef(out, e) {
			out = append(out, e)
		}
	}
	return out
}

func containsRef(xs []int32, x int32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// targetBits lazily derives the trie branch of a target key at peer u's
// split geometry: bit l is 0 when the key falls in the lower half of the
// interval that level l splits. Because splits are always at binary
// midpoints of [0,1), bit l is simply the l-th bit of the key's binary
// expansion *adjusted for virtual splits* — which split() encoded into
// the paths, so we recompute by walking the interval.
func targetBit(path []byte, l int, key float64) byte {
	kLo, kHi := 0.0, 1.0
	for i := 0; i < l; i++ {
		mid := (kLo + kHi) / 2
		if path[i] == 0 {
			kHi = mid
		} else {
			kLo = mid
		}
	}
	if key < (kLo+kHi)/2 {
		return 0
	}
	return 1
}

// Owner returns the peer whose leaf region contains the key: the unique
// peer whose full path matches the key's branch bits.
func (nw *Network) Owner(key keyspace.Key) int {
	lo, hi := 0, nw.N()
	kLo, kHi := 0.0, 1.0
	depth := 0
	for hi-lo > 1 {
		mid := (kLo + kHi) / 2
		cut := lo
		for cut < hi && float64(nw.keys[cut]) < mid {
			cut++
		}
		switch {
		case cut == lo:
			kLo = mid
		case cut == hi:
			kHi = mid
		default:
			if float64(key) < mid {
				hi, kHi = cut, mid
			} else {
				lo, kLo = cut, mid
			}
		}
		depth++
		if depth > maxDepth+1 {
			break
		}
	}
	return lo
}

// Lookup routes a query for key from peer src: at each peer, find the
// first level where the target's branch diverges from the peer's path and
// forward to the randomized reference of that level. Returns hops and the
// responsible peer.
func (nw *Network) Lookup(src int, key keyspace.Key) (hops, owner int) {
	cur := src
	for step := 0; step <= maxDepth*2; step++ {
		l := nw.divergingLevel(cur, float64(key))
		if l == -1 {
			return hops, cur
		}
		next := int(nw.refs[cur][l])
		if next == cur {
			// Boundary peer of a virtual split: the key's region is
			// unpopulated and cur is responsible for it.
			return hops, cur
		}
		cur = next
		hops++
	}
	return hops, cur
}

// divergingLevel returns the first level where key branches away from
// peer u's path, or -1 when u's leaf contains the key.
func (nw *Network) divergingLevel(u int, key float64) int {
	for l := range nw.paths[u] {
		if targetBit(nw.paths[u], l, key) != nw.paths[u][l] {
			return l
		}
	}
	return -1
}
