package smallworld

import (
	"math"
	"sort"

	"smallworld/keyspace"
	"smallworld/xrand"
)

// sampler draws a node's long-range targets.
type sampler interface {
	// sampleLinks returns up to m distinct long-range targets for node u,
	// excluding u itself and u's neighbouring-edge targets. sc holds
	// per-worker scratch buffers; it may be nil for one-off calls. It
	// may read rng past the draw of its last accepted link (the protocol
	// sampler draws in batches), which is safe because build reseeds the
	// stream for every node: only that node's links depend on it.
	sampleLinks(nw *Network, u, m int, rng *xrand.Stream, sc *samplerScratch) []int32
}

// maxAttemptsPerLink bounds re-draws when a sampled target duplicates an
// existing link or fails the envelope-rejection step; beyond it the link
// is recorded as shortfall.
const maxAttemptsPerLink = 64

// ---------------------------------------------------------------------------
// Exact sampler: dyadic measure bands + Walker alias table + rejection.
//
// The model distribution is P[v] ∝ measure(u,v)^-r over every eligible
// peer (measure >= MinMeasure). The naive implementation materialises a
// per-node cumulative weight table — O(N) per node, O(N²) per build
// (naiveExactSampler in sampler_ref_test.go, kept for equivalence tests
// and benchmarks).
//
// The fast sampler exploits that nodes are sorted by their measure-space
// position (nw.mpos), so the peers whose measure from u falls in the
// dyadic band [lo·2^k, lo·2^(k+1)) form at most one contiguous index run
// per side of u, found by binary search. Within a band the weight varies
// by at most 2^r, so the band total is tightly upper-bounded by
// count·(lo·2^k)^-r. Sampling then goes:
//
//	band  ~ Walker alias table over the ≤ 2·log2(maxM/lo) band bounds,
//	peer  ~ uniform within the band's index run,
//	accept with probability weight(peer) / bandBound   (≥ 2^-r),
//
// which yields *exactly* P[v] ∝ weight(v) — the envelope slack is folded
// into the rejection — at O(log²N) per node instead of O(N):
// O(N log N)-ish per build overall. Determinism: everything derives from
// the position array and the per-node RNG stream, so builds stay
// bit-reproducible per (cfg, seed) and independent of Workers.
// ---------------------------------------------------------------------------

// band is one contiguous run of candidate indices at comparable measure.
type band struct {
	start int32   // first index (circular: may wrap past n)
	count int32   // number of nodes in the run
	blo   float64 // lower measure bound of the dyadic band
	bound float64 // per-peer weight upper bound blo^-r
}

// samplerScratch holds per-worker reusable buffers so steady-state
// sampling does not allocate.
type samplerScratch struct {
	bands []band
	// Walker alias table over bands.
	prob  []float64
	alias []int16
	small []int16
	large []int16
	// Incremental cursor state of the band boundary searches.
	scan bandScan
	// The protocol sampler's batch: target keys and their successors.
	targets []keyspace.Key
	succs   []int32
}

// bandScan caches the band boundary indices of the previously scanned
// node so that scanning the next node in position order advances each
// boundary by a few comparisons instead of re-running a binary search.
//
// Every dyadic band boundary of node u sits at a fixed measure offset
// from u's own position x: wrap(x ± lo·2^k) on the ring, x ± lo·2^k on
// the line. Positions are scanned in ascending order within each
// construction chunk, so each boundary index is a nondecreasing
// function of u (modulo one wrap per sweep on the ring) and a cursor
// can gallop forward. Any non-consecutive access — a chunk start, a
// test probing strided nodes, a ring boundary wrapping past 1 — falls
// back to the binary search, so the computed indices are always exactly
// those of the search-based reference (appendBandsSearch, in
// sampler_ref_test.go).
type bandScan struct {
	nw    *Network  // network the cursors are valid for
	prevU int       // node the cursors currently describe
	offs  []float64 // dyadic lower bounds lo·2^k, ascending

	cw      []int32   // per band: first index with pos >= (wrapped) x+off
	ccw     []int32   // per band: first index with pos >  (wrapped) x-off
	cwPrev  []float64 // wrapped targets the cw cursors were advanced to
	ccwPrev []float64

	// Ring only: first index past the antipode wrap(x±½), shared by the
	// last clockwise and counter-clockwise bands.
	anti     int32
	antiPrev float64
}

// init sizes the cursor state for nw's band structure and invalidates
// every cursor.
func (bs *bandScan) init(nw *Network) {
	bs.nw = nw
	bs.prevU = -2
	bs.offs = bs.offs[:0]
	maxM := nw.cfg.Topology.MaxDistance()
	for blo := nw.cfg.MinMeasure; blo < maxM; blo *= 2 {
		bs.offs = append(bs.offs, blo)
	}
	k := len(bs.offs)
	if cap(bs.cw) < k {
		bs.cw = make([]int32, k)
		bs.ccw = make([]int32, k)
		bs.cwPrev = make([]float64, k)
		bs.ccwPrev = make([]float64, k)
	}
	bs.cw = bs.cw[:k]
	bs.ccw = bs.ccw[:k]
	bs.cwPrev = bs.cwPrev[:k]
	bs.ccwPrev = bs.ccwPrev[:k]
}

// ensure moves every boundary cursor to node u's targets.
func (bs *bandScan) ensure(nw *Network, u int) {
	if bs.nw != nw {
		bs.init(nw)
	}
	pos := nw.mpos
	x := pos[u]
	inc := u == bs.prevU+1 || u == bs.prevU
	bs.prevU = u
	if nw.cfg.Topology == keyspace.Ring {
		for k, off := range bs.offs {
			t := wrapUnit(x + off)
			bs.cw[k] = advanceGE(pos, bs.cw[k], bs.cwPrev[k], t, inc)
			bs.cwPrev[k] = t
			t = wrapUnit(x - off)
			bs.ccw[k] = advanceGT(pos, bs.ccw[k], bs.ccwPrev[k], t, inc)
			bs.ccwPrev[k] = t
		}
		t := wrapUnit(x + 0.5)
		bs.anti = advanceGT(pos, bs.anti, bs.antiPrev, t, inc)
		bs.antiPrev = t
		return
	}
	for k, off := range bs.offs {
		t := x + off
		bs.cw[k] = advanceGE(pos, bs.cw[k], bs.cwPrev[k], t, inc)
		bs.cwPrev[k] = t
		t = x - off
		bs.ccw[k] = advanceGT(pos, bs.ccw[k], bs.ccwPrev[k], t, inc)
		bs.ccwPrev[k] = t
	}
}

// advanceGE returns the first index with pos[i] >= t, galloping forward
// from idx when the cursor is warm (inc) and t has not wrapped below the
// previously scanned target.
func advanceGE(pos []float64, idx int32, prev, t float64, inc bool) int32 {
	if !inc || t < prev {
		return int32(sort.SearchFloat64s(pos, t))
	}
	n := int32(len(pos))
	for idx < n && pos[idx] < t {
		idx++
	}
	return idx
}

// advanceGT is advanceGE for the strict boundary: first pos[i] > t.
func advanceGT(pos []float64, idx int32, prev, t float64, inc bool) int32 {
	if !inc || t < prev {
		return int32(searchGT(pos, t))
	}
	n := int32(len(pos))
	for idx < n && pos[idx] <= t {
		idx++
	}
	return idx
}

type exactSampler struct{}

func (exactSampler) sampleLinks(nw *Network, u, m int, rng *xrand.Stream, sc *samplerScratch) []int32 {
	if m == 0 {
		return nil
	}
	if sc == nil {
		sc = &samplerScratch{}
	}
	total := nw.appendBands(u, sc)
	if total <= 0 || len(sc.bands) == 0 {
		return nil
	}
	buildAlias(sc, total)

	n := nw.cfg.N
	r := nw.cfg.Exponent
	lo := nw.cfg.MinMeasure
	links := make([]int32, 0, m)
	for len(links) < m {
		placed := false
		for attempt := 0; attempt < maxAttemptsPerLink; attempt++ {
			// Alias draw: one uniform yields both the column and the coin.
			f := rng.Float64() * float64(len(sc.bands))
			k := int(f)
			if k >= len(sc.bands) { // f == len exactly (measure zero)
				k = len(sc.bands) - 1
			}
			if f-float64(k) >= sc.prob[k] {
				k = int(sc.alias[k])
			}
			b := &sc.bands[k]
			j := int(rng.Float64() * float64(b.count))
			if j >= int(b.count) {
				j = int(b.count) - 1
			}
			v := int(b.start) + j
			if v >= n {
				v -= n
			}
			// Exact acceptance: weight(v)/bound. Recomputing the measure
			// here (rather than trusting the position search) also
			// guarantees the MinMeasure eligibility invariant at the
			// floating-point boundaries of a band.
			meas := nw.measureBetween(u, v)
			if meas < lo {
				continue
			}
			var accept float64
			if r == 1 {
				accept = b.blo / meas
			} else {
				accept = math.Pow(b.blo/meas, r)
			}
			if rng.Float64() >= accept {
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

// appendBands fills sc.bands with node u's dyadic candidate runs and
// returns the total envelope weight Σ count·bound. Boundary indices come
// from the scratch's incremental cursors (exactly equal to the binary
// searches of appendBandsSearch, amortised O(1) per band when nodes are
// scanned in position order — which the chunked build loop guarantees).
func (nw *Network) appendBands(u int, sc *samplerScratch) float64 {
	sc.bands = sc.bands[:0]
	bs := &sc.scan
	bs.ensure(nw, u)
	n := len(nw.mpos)
	r := nw.cfg.Exponent
	ring := nw.cfg.Topology == keyspace.Ring

	var total float64
	push := func(i1 int32, count int, blo float64) {
		if count <= 0 {
			return
		}
		var bound float64
		if r == 1 {
			bound = 1 / blo
		} else {
			bound = math.Pow(blo, -r)
		}
		start := int(i1)
		if start >= n {
			start -= n
		}
		sc.bands = append(sc.bands, band{start: int32(start), count: int32(count), blo: blo, bound: bound})
		total += float64(count) * bound
	}

	last := len(bs.offs) - 1
	for k, blo := range bs.offs {
		if ring {
			// Clockwise arc [x+blo, x+bhi) — closed above at the antipode
			// for the last band — then the counter-clockwise mirror; see
			// appendBandsSearch for the inclusivity derivation.
			i1, an := bs.cw[k], bs.cwPrev[k]
			var i2 int32
			var bn float64
			if k < last {
				i2, bn = bs.cw[k+1], bs.cwPrev[k+1]
			} else {
				i2, bn = bs.anti, bs.antiPrev
			}
			push(i1, circCount(n, i1, i2, an, bn), blo)
			var j1 int32
			var an2 float64
			if k < last {
				j1, an2 = bs.ccw[k+1], bs.ccwPrev[k+1]
			} else {
				j1, an2 = bs.anti, bs.antiPrev
			}
			j2, bn2 := bs.ccw[k], bs.ccwPrev[k]
			push(j1, circCount(n, j1, j2, an2, bn2), blo)
			continue
		}
		// Line right side [x+blo, x+bhi), open-ended on the last band.
		i1 := bs.cw[k]
		i2 := int32(n)
		if k < last {
			i2 = bs.cw[k+1]
		}
		push(i1, int(i2-i1), blo)
		// Line left side (x-bhi, x-blo], open-ended on the last band.
		j2 := bs.ccw[k]
		var j1 int32
		if k < last {
			j1 = bs.ccw[k+1]
		}
		push(j1, int(j2-j1), blo)
	}
	return total
}

// circCount is circRange's index arithmetic over cursor-derived
// boundaries: i1/i2 are the search indices of the wrapped bounds an/bn,
// and the run wraps past the end of the position array exactly when the
// wrapped bounds are out of order.
func circCount(n int, i1, i2 int32, an, bn float64) int {
	if an <= bn {
		return int(i2 - i1)
	}
	return (n - int(i1)) + int(i2)
}

// searchGT returns the index of the first element > t.
func searchGT(pos []float64, t float64) int {
	return sort.Search(len(pos), func(i int) bool { return pos[i] > t })
}

// wrapUnit maps a raw offset onto [0,1).
func wrapUnit(x float64) float64 {
	f := x - math.Floor(x)
	if f >= 1 {
		f = 0
	}
	return f
}

// buildAlias constructs the Walker/Vose alias table over sc.bands with
// band k weighted by count·bound. After it, a band is drawn in O(1):
// pick column c uniformly, keep c with probability prob[c], else take
// alias[c].
func buildAlias(sc *samplerScratch, total float64) {
	k := len(sc.bands)
	if cap(sc.prob) < k {
		sc.prob = make([]float64, k)
		sc.alias = make([]int16, k)
		sc.small = make([]int16, 0, k)
		sc.large = make([]int16, 0, k)
	}
	sc.prob = sc.prob[:k]
	sc.alias = sc.alias[:k]
	sc.small = sc.small[:0]
	sc.large = sc.large[:0]
	for i, b := range sc.bands {
		sc.prob[i] = float64(b.count) * b.bound * float64(k) / total
		sc.alias[i] = int16(i)
		if sc.prob[i] < 1 {
			sc.small = append(sc.small, int16(i))
		} else {
			sc.large = append(sc.large, int16(i))
		}
	}
	for len(sc.small) > 0 && len(sc.large) > 0 {
		s := sc.small[len(sc.small)-1]
		sc.small = sc.small[:len(sc.small)-1]
		l := sc.large[len(sc.large)-1]
		sc.alias[s] = l
		sc.prob[l] -= 1 - sc.prob[s]
		if sc.prob[l] < 1 {
			sc.large = sc.large[:len(sc.large)-1]
			sc.small = append(sc.small, l)
		}
	}
	// Numerical leftovers saturate to probability 1 (standard Vose fix).
	for _, i := range sc.small {
		sc.prob[i] = 1
	}
	for _, i := range sc.large {
		sc.prob[i] = 1
	}
}

// protocolSampler mirrors the Section 4.2 join protocol: draw an offset in
// measure space with density ∝ m^-r over the eligible range, map it back
// to a key (through the quantile function for the Mass measure), and link
// to the peer closest to that key — exactly what "query for the drawn
// value and add the responder" achieves in a deployed overlay.
//
// It draws a target for every link still missing, finds all their
// successors in one pass so that the searches' cache misses overlap,
// and then accepts them in draw order, so it places exactly the links
// that drawing and resolving one target at a time would. Once a link
// has failed maxAttemptsPerLink draws, the rest of the batch is unused.
type protocolSampler struct{}

func (protocolSampler) sampleLinks(nw *Network, u, m int, rng *xrand.Stream, sc *samplerScratch) []int32 {
	if m == 0 {
		return nil
	}
	links := make([]int32, 0, m)
	md, ok := NewMeasureDraw(nw.cfg.Topology, nw.mpos[u], nw.cfg.Exponent, nw.cfg.MinMeasure)
	if !ok {
		return links
	}
	if sc == nil {
		sc = &samplerScratch{}
	}
	misses := 0 // failed draws since the last accepted link
	for len(links) < m {
		sc.targets, sc.succs = sc.targets[:0], sc.succs[:0]
		for i := len(links); i < m; i++ {
			sc.targets = append(sc.targets, nw.targetKey(md.Draw(rng)))
		}
		for _, x := range sc.targets {
			sc.succs = append(sc.succs, int32(nw.successor(x)))
		}
		for i, x := range sc.targets {
			v := nw.keys.NearestExcludingFrom(nw.cfg.Topology, x, u, int(sc.succs[i]))
			if v >= 0 && acceptLink(nw, u, v, links) {
				links = append(links, int32(v))
				misses = 0
			} else if misses++; misses == maxAttemptsPerLink {
				return links
			}
		}
	}
	return links
}

// MeasureDraw is the Section 4.2 link draw from one position in measure
// space: an offset with density ∝ m^-r over the eligible range
// [lo, maxM], on a side chosen uniformly on the ring and by the sides'
// masses on the line. The Protocol sampler builds with it, and dynamic
// overlays (overlaynet.NewIncremental) repair with it, so offline
// construction and live repair follow the identical distribution. Its
// constants depend only on the position, so a caller drawing many
// offsets from one position builds it once.
type MeasureDraw struct {
	pos, r      float64
	ring        bool
	wRight, w   float64   // line: the right side's mass and both sides'
	right, left powerSide // the ring draws both directions from right
}

// powerSide draws m in [lo, hi] with density ∝ m^-r by inverse
// transform. It holds ln(hi/lo) for r = 1, lo^(1-r) and hi^(1-r)
// otherwise.
type powerSide struct {
	lo, ln, a, b float64
}

// NewMeasureDraw returns the draw from position pos under exponent r and
// eligibility floor lo on topology topo. ok is false when no eligible
// offset exists on either side.
func NewMeasureDraw(topo keyspace.Topology, pos, r, lo float64) (d MeasureDraw, ok bool) {
	d = MeasureDraw{pos: pos, r: r, ring: topo == keyspace.Ring}
	if d.ring {
		const hi = 0.5
		if hi <= lo {
			return d, false
		}
		d.right = newPowerSide(r, lo, hi)
		return d, true
	}
	// Line: the available measure to the right is 1-pos, to the left pos.
	d.wRight = sideWeight(r, lo, 1-pos)
	d.w = d.wRight + sideWeight(r, lo, pos)
	if d.w <= 0 {
		return d, false
	}
	d.right = newPowerSide(r, lo, 1-pos)
	d.left = newPowerSide(r, lo, pos)
	return d, true
}

func newPowerSide(r, lo, hi float64) powerSide {
	if r == 1 {
		return powerSide{lo: lo, ln: math.Log(hi / lo)}
	}
	return powerSide{a: math.Pow(lo, 1-r), b: math.Pow(hi, 1-r)}
}

// Draw returns one target position: pos moved by a drawn offset, wrapped
// onto [0,1) on the ring. It reads two uniforms from rng: the offset's
// and then the direction's on the ring, the side's and then the
// offset's on the line.
func (d *MeasureDraw) Draw(rng *xrand.Stream) float64 {
	if d.ring {
		off := d.right.draw(rng, d.r)
		if rng.Bool(0.5) {
			off = -off
		}
		return float64(keyspace.Wrap(d.pos + off))
	}
	if rng.Float64()*d.w < d.wRight {
		return d.pos + d.right.draw(rng, d.r)
	}
	return d.pos - d.left.draw(rng, d.r)
}

func (s *powerSide) draw(rng *xrand.Stream, r float64) float64 {
	u := rng.Float64()
	if r == 1 {
		return s.lo * math.Exp(u*s.ln)
	}
	return math.Pow(s.a+u*(s.b-s.a), 1/(1-r))
}

// targetKey maps a measure-space position back to a key: through the
// quantile function for the Mass measure, as is for the Geometric one.
func (nw *Network) targetKey(target float64) keyspace.Key {
	if nw.cfg.Measure == Mass {
		return keyspace.Clamp(nw.cfg.Dist.Quantile(clamp01(target)))
	}
	return keyspace.Clamp(target)
}

// indexKeys builds the successor index the Protocol sampler resolves
// its draws through. For the power of two B ≥ N/8, succStart[b] is the
// first rank whose key k has int(k·B) ≥ b, and succStart[B] = N. For x
// in [0,1) and b = int(x·B), the successor of x lies in
// [succStart[b], succStart[b+1]]: scaling by a power of two is exact
// and floor is monotone, so the keys below succStart[b] are below
// b/B ≤ x, and the key at succStart[b+1] is at least (b+1)/B > x.
func (nw *Network) indexKeys() {
	b := 1
	for b*8 < len(nw.keys) {
		b *= 2
	}
	nw.succStart = make([]int32, b+1)
	i := 0
	for c := range nw.succStart {
		for i < len(nw.keys) && int(float64(nw.keys[i])*float64(b)) < c {
			i++
		}
		nw.succStart[c] = int32(i)
	}
}

// successor returns nw.keys.Successor(x). While the keys are indexed it
// searches only the ranks of x's bucket, unless x is outside [0,1) or
// NaN.
func (nw *Network) successor(x keyspace.Key) int {
	if nw.succStart == nil || !(x >= 0 && x < 1) {
		return nw.keys.Successor(x)
	}
	b := int(float64(x) * float64(len(nw.succStart)-1))
	lo, hi := int(nw.succStart[b]), int(nw.succStart[b+1])
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); nw.keys[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(nw.keys) {
		return 0
	}
	return lo
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// acceptLink reports whether v is a valid new long-range target for u:
// not u itself, not a neighbouring-edge target, not already chosen.
func acceptLink(nw *Network, u, v int, chosen []int32) bool {
	if v == u || nw.isNeighborIndex(u, v) {
		return false
	}
	for _, w := range chosen {
		if int(w) == v {
			return false
		}
	}
	return true
}

// sideWeight is the normalisation mass of the density m^-r on [lo, hi]:
// ln(hi/lo) for r = 1, (hi^(1-r) - lo^(1-r))/(1-r) otherwise; zero when
// the interval is empty.
func sideWeight(r, lo, hi float64) float64 {
	if hi <= lo || lo <= 0 {
		return 0
	}
	if r == 1 {
		return math.Log(hi / lo)
	}
	return (math.Pow(hi, 1-r) - math.Pow(lo, 1-r)) / (1 - r)
}
