package smallworld

import (
	"math"
	"sort"

	"smallworld/keyspace"
	"smallworld/xrand"
)

// Reference implementations the production samplers are pinned
// against. They live in a test file because nothing but tests and
// benchmarks runs them.

// naiveExactSampler is the reference O(N)-per-node implementation: a full
// cumulative weight table over every peer, inverted by binary search. It
// draws from the identical distribution as exactSampler and is retained
// for the statistical-equivalence tests and the before/after benchmark
// (BenchmarkExactSampler* in sampler_bench_test.go).
type naiveExactSampler struct{}

func (naiveExactSampler) sampleLinks(nw *Network, u, m int, rng *xrand.Stream, _ *samplerScratch) []int32 {
	if m == 0 {
		return nil
	}
	n := nw.cfg.N
	r := nw.cfg.Exponent
	cum := make([]float64, n+1)
	for v := 0; v < n; v++ {
		w := 0.0
		if v != u {
			if meas := nw.measureBetween(u, v); meas >= nw.cfg.MinMeasure {
				if r == 1 {
					w = 1 / meas
				} else {
					w = math.Pow(meas, -r)
				}
			}
		}
		cum[v+1] = cum[v] + w
	}
	total := cum[n]
	if total <= 0 {
		return nil
	}
	links := make([]int32, 0, m)
	for len(links) < m {
		placed := false
		for attempt := 0; attempt < maxAttemptsPerLink; attempt++ {
			target := rng.Float64() * total
			// First index with cum[i] > target is the end of the chosen
			// node's weight span; the node is that index minus one.
			v := sort.SearchFloat64s(cum, target)
			if v > 0 && cum[v] > target {
				v--
			}
			// Skip zero-weight spans the search may land on.
			for v < n && cum[v+1] == cum[v] {
				v++
			}
			if v >= n {
				continue
			}
			if acceptLink(nw, u, v, links) {
				links = append(links, int32(v))
				placed = true
				break
			}
		}
		if !placed {
			break
		}
	}
	return links
}

// appendBandsSearch is the binary-search reference implementation of the
// band decomposition, retained to pin the cursor-based appendBands
// bit-exactly (TestBandScanMatchesBinarySearch) and for documentation of
// the boundary inclusivity rules.
func (nw *Network) appendBandsSearch(u int, sc *samplerScratch) float64 {
	sc.bands = sc.bands[:0]
	pos := nw.mpos
	n := len(pos)
	x := pos[u]
	lo := nw.cfg.MinMeasure
	r := nw.cfg.Exponent
	ring := nw.cfg.Topology == keyspace.Ring
	maxM := nw.cfg.Topology.MaxDistance()

	var total float64
	push := func(start, count int, blo float64) {
		if count <= 0 {
			return
		}
		var bound float64
		if r == 1 {
			bound = 1 / blo
		} else {
			bound = math.Pow(blo, -r)
		}
		if start >= n {
			start -= n
		}
		sc.bands = append(sc.bands, band{start: int32(start), count: int32(count), blo: blo, bound: bound})
		total += float64(count) * bound
	}

	for blo := lo; blo < maxM; blo *= 2 {
		bhi := blo * 2
		last := bhi >= maxM
		if ring {
			// Clockwise arc: measure offsets in [blo, min(bhi, 0.5)); the
			// clipped last band is closed above so the exact antipode
			// (measure 0.5) stays reachable. Counter-clockwise arc:
			// offsets in [blo, min(bhi, 0.5)) with the antipode excluded
			// (the clockwise band already covers it).
			if last {
				s, c := circRange(pos, x+blo, true, x+maxM, true)
				push(s, c, blo)
				s, c = circRange(pos, x-maxM, false, x-blo, true)
				push(s, c, blo)
			} else {
				s, c := circRange(pos, x+blo, true, x+bhi, false)
				push(s, c, blo)
				s, c = circRange(pos, x-bhi, false, x-blo, true)
				push(s, c, blo)
			}
		} else {
			// Line right side: positions in [x+blo, x+bhi), open-ended on
			// the last band.
			i1 := sort.SearchFloat64s(pos, x+blo)
			i2 := n
			if !last {
				i2 = sort.SearchFloat64s(pos, x+bhi)
			}
			push(i1, i2-i1, blo)
			// Line left side: positions in (x-bhi, x-blo], open-ended on
			// the last band.
			j2 := searchGT(pos, x-blo)
			j1 := 0
			if !last {
				j1 = searchGT(pos, x-bhi)
			}
			push(j1, j2-j1, blo)
		}
	}
	return total
}

// circRange returns the circular index run of positions between a and b
// on the unit ring; each bound is closed when its *Inclusive flag is set
// ([a,b), (a,b], [a,b] or (a,b)). a and b are raw offsets that may lie
// outside [0,1); they are wrapped. The run is returned as (start, count)
// with start in [0, n) and indices continuing modulo n.
func circRange(pos []float64, a float64, aInclusive bool, b float64, bInclusive bool) (int, int) {
	n := len(pos)
	an := wrapUnit(a)
	bn := wrapUnit(b)
	var i1, i2 int
	if aInclusive {
		i1 = sort.SearchFloat64s(pos, an)
	} else {
		i1 = searchGT(pos, an)
	}
	if bInclusive {
		i2 = searchGT(pos, bn)
	} else {
		i2 = sort.SearchFloat64s(pos, bn)
	}
	if an <= bn {
		return i1 % max(n, 1), i2 - i1
	}
	return i1 % max(n, 1), (n - i1) + i2
}

// refProtocolSampler is the reference draw loop of the Protocol
// sampler: one draw at a time through drawMeasureTargetRef, which
// recomputes the draw's constants every time, each resolved by a full
// Points.NearestExcluding search before the next is drawn.
// TestProtocolSamplerMatchesReference pins protocolSampler to it.
type refProtocolSampler struct{}

func (refProtocolSampler) sampleLinks(nw *Network, u, m int, rng *xrand.Stream, _ *samplerScratch) []int32 {
	if m == 0 {
		return nil
	}
	r := nw.cfg.Exponent
	lo := nw.cfg.MinMeasure
	pos := nw.mpos[u]
	links := make([]int32, 0, m)
	for len(links) < m {
		placed := false
		for attempt := 0; attempt < maxAttemptsPerLink; attempt++ {
			target, ok := drawMeasureTargetRef(rng, nw.cfg.Topology, pos, r, lo)
			if !ok {
				return links
			}
			v := nw.keys.NearestExcluding(nw.cfg.Topology, nw.targetKey(target), u)
			if v >= 0 && acceptLink(nw, u, v, links) {
				links = append(links, int32(v))
				placed = true
				break
			}
		}
		if !placed {
			break
		}
	}
	return links
}

// drawMeasureTargetRef is MeasureDraw as one function: it computes the
// side weights and the inverse-transform constants on every draw and
// reads the stream in the same order.
func drawMeasureTargetRef(rng *xrand.Stream, topo keyspace.Topology, pos, r, lo float64) (float64, bool) {
	if topo == keyspace.Ring {
		const hi = 0.5
		if hi <= lo {
			return 0, false
		}
		off := powerOffsetRef(rng, r, lo, hi)
		if rng.Bool(0.5) {
			off = -off
		}
		return float64(keyspace.Wrap(pos + off)), true
	}
	wRight := sideWeight(r, lo, 1-pos)
	wLeft := sideWeight(r, lo, pos)
	if wRight+wLeft <= 0 {
		return 0, false
	}
	if rng.Float64()*(wRight+wLeft) < wRight {
		return pos + powerOffsetRef(rng, r, lo, 1-pos), true
	}
	return pos - powerOffsetRef(rng, r, lo, pos), true
}

// powerOffsetRef draws m in [lo, hi] with density ∝ m^-r by inverse
// transform (LogUniform for the harmonic case r = 1).
func powerOffsetRef(rng *xrand.Stream, r, lo, hi float64) float64 {
	if r == 1 {
		return rng.LogUniform(lo, hi)
	}
	u := rng.Float64()
	a := math.Pow(lo, 1-r)
	b := math.Pow(hi, 1-r)
	return math.Pow(a+u*(b-a), 1/(1-r))
}
