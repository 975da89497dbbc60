package keyspace

import (
	"math"
	"math/rand"
	"testing"
)

// nearestExcludingRef is the reference NearestExcludingFrom is pinned
// to: it probes outward from x's successor, one step up and one down
// at a time with modular wrap, until it has kept a point and probed
// two steps further, or has probed every offset.
func nearestExcludingRef(p Points, t Topology, x Key, self int) int {
	if len(p) < 2 {
		return -1
	}
	mod := func(i, n int) int {
		m := i % n
		if m < 0 {
			m += n
		}
		return m
	}
	best, bestD := -1, math.Inf(1)
	start := p.Successor(x)
	for off := 0; off < len(p); off++ {
		for _, i := range []int{mod(start+off, len(p)), mod(start-off-1, len(p))} {
			if i == self {
				continue
			}
			if d := t.Distance(p[i], x); d < bestD || (d == bestD && i < best) {
				best, bestD = i, d
			}
		}
		if best >= 0 && off >= 2 {
			break
		}
	}
	return best
}

func TestNearestExcludingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 2; n <= 9; n++ {
		even := make(Points, n) // midpoints tie exactly
		random := make([]Key, n)
		cluster := make(Points, n) // consecutive floats
		c := 0.75
		for i := range even {
			even[i] = Key(float64(i) / float64(n))
			random[i] = Key(rng.Float64())
			cluster[i] = Key(c)
			c = math.Nextafter(c, 1)
		}
		for _, p := range []Points{even, SortPoints(random), cluster} {
			xs := []Key{0, Key(math.Nextafter(1, 0)), Key(math.NaN()), Key(math.Inf(1)), Key(math.Inf(-1))}
			for i, k := range p {
				next := float64(p[(i+1)%n])
				if i == n-1 {
					next++ // the ring's wrap gap
				}
				xs = append(xs, k, Wrap((float64(k)+next)/2), Key(rng.Float64()))
			}
			for _, topo := range []Topology{Line, Ring} {
				for self := -1; self < n; self++ {
					for _, x := range xs {
						want := nearestExcludingRef(p, topo, x, self)
						if got := p.NearestExcluding(topo, x, self); got != want {
							t.Fatalf("%v %v: NearestExcluding(%v, self %d) = %d, want %d", topo, p, x, self, got, want)
						}
						if got := p.NearestExcludingFrom(topo, x, self, p.Successor(x)); got != want {
							t.Fatalf("%v %v: NearestExcludingFrom(%v, self %d) = %d, want %d", topo, p, x, self, got, want)
						}
					}
				}
			}
		}
	}
}
