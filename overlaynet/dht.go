package overlaynet

import (
	"context"

	"smallworld"
	"smallworld/internal/dht/can"
	"smallworld/internal/dht/chord"
	"smallworld/internal/dht/pastry"
	"smallworld/internal/dht/pgrid"
	"smallworld/internal/dht/symphony"
	"smallworld/keyspace"
)

func init() {
	Register(Info{
		Name:        "chord",
		Description: "Chord: finger tables over a hashed 64-bit ring, closest-preceding-finger lookups",
		Build: func(ctx context.Context, opts Options) (Overlay, error) {
			return wrapChord(chord.Build(opts.N, opts.Seed)), nil
		},
	})
	Register(Info{
		Name:        "pastry",
		Description: "Pastry: prefix routing over base-2^b digits with a leaf set (b default 4)",
		Build: func(ctx context.Context, opts Options) (Overlay, error) {
			nw, err := pastry.Build(pastry.Config{N: opts.N, Seed: opts.Seed})
			if err != nil {
				return nil, err
			}
			return wrapPastry(nw), nil
		},
	})
	Register(Info{
		Name:        "pgrid",
		Description: "P-Grid: binary trie over [0,1) with randomized sibling references; follows the key skew",
		Build: func(ctx context.Context, opts Options) (Overlay, error) {
			nw, err := pgrid.Build(pgrid.Config{N: opts.N, Dist: opts.Dist, Seed: opts.Seed})
			if err != nil {
				return nil, err
			}
			return wrapPGrid(nw), nil
		},
	})
	Register(Info{
		Name:        "symphony",
		Description: "Symphony: harmonic key-space long links on a ring (Degree = k, default log2 N)",
		Build: func(ctx context.Context, opts Options) (Overlay, error) {
			return buildSymphony(opts, symphony.Classic, "symphony")
		},
	})
	Register(Info{
		Name:        "mercury",
		Description: "Mercury: Symphony's draw in rank space — the sampled approximation of Model 2",
		Build: func(ctx context.Context, opts Options) (Overlay, error) {
			return buildSymphony(opts, symphony.Mercury, "mercury")
		},
	})
	Register(Info{
		Name:        "can",
		Description: "CAN: d-dimensional zone partition (d default 2); hop counts degrade under key skew",
		Build: func(ctx context.Context, opts Options) (Overlay, error) {
			nw, err := can.Build(can.Config{N: opts.N, Dist: opts.Dist, Seed: opts.Seed})
			if err != nil {
				return nil, err
			}
			return wrapCAN(nw), nil
		},
	})
}

// ringOverlay is the shared shape of the DHT adapters: a precomputed
// projection of node identifiers onto [0,1) and a precomputed
// out-neighbour table, with routing delegated per adapter.
type ringOverlay struct {
	kind string
	keys []keyspace.Key
	out  [][]int32
}

func (o *ringOverlay) Kind() string            { return o.kind }
func (o *ringOverlay) N() int                  { return len(o.keys) }
func (o *ringOverlay) Key(u int) keyspace.Key  { return o.keys[u] }
func (o *ringOverlay) Keys() []keyspace.Key    { return o.keys }
func (o *ringOverlay) Neighbors(u int) []int32 { return o.out[u] }

// --- Chord ---

type chordOverlay struct {
	ringOverlay
	nw *chord.Network
}

func wrapChord(nw *chord.Network) *chordOverlay {
	n := nw.N()
	o := &chordOverlay{ringOverlay{kind: "chord", keys: make([]keyspace.Key, n), out: make([][]int32, n)}, nw}
	for u := 0; u < n; u++ {
		o.keys[u] = u64ToKey(nw.ID(u))
		o.out[u] = nw.Links(u)
	}
	return o
}

func (o *chordOverlay) Stats() Stats      { return statsOf(o) }
func (o *chordOverlay) NewRouter() Router { return chordRouter{nw: o.nw} }

type chordRouter struct{ nw *chord.Network }

func (r chordRouter) Route(src int, target keyspace.Key) Result {
	x := keyToU64(target)
	hops, owner := r.nw.Lookup(src, x)
	return Result{Hops: hops, Dest: owner, Arrived: owner == r.nw.Owner(x)}
}

// --- Pastry ---

type pastryOverlay struct {
	ringOverlay
	nw *pastry.Network
}

func wrapPastry(nw *pastry.Network) *pastryOverlay {
	n := nw.N()
	o := &pastryOverlay{ringOverlay{kind: "pastry", keys: make([]keyspace.Key, n), out: make([][]int32, n)}, nw}
	for u := 0; u < n; u++ {
		o.keys[u] = u64ToKey(nw.ID(u))
		o.out[u] = nw.Links(u)
	}
	return o
}

func (o *pastryOverlay) Stats() Stats      { return statsOf(o) }
func (o *pastryOverlay) NewRouter() Router { return pastryRouter{nw: o.nw} }

type pastryRouter struct{ nw *pastry.Network }

func (r pastryRouter) Route(src int, target keyspace.Key) Result {
	x := keyToU64(target)
	hops, owner := r.nw.Lookup(src, x)
	return Result{Hops: hops, Dest: owner, Arrived: owner == r.nw.Owner(x)}
}

// --- P-Grid ---

type pgridOverlay struct {
	ringOverlay
	nw *pgrid.Network
}

func wrapPGrid(nw *pgrid.Network) *pgridOverlay {
	n := nw.N()
	o := &pgridOverlay{ringOverlay{kind: "pgrid", keys: make([]keyspace.Key, n), out: make([][]int32, n)}, nw}
	for u := 0; u < n; u++ {
		o.keys[u] = nw.Key(u)
		o.out[u] = nw.Links(u)
	}
	return o
}

func (o *pgridOverlay) Stats() Stats      { return statsOf(o) }
func (o *pgridOverlay) NewRouter() Router { return pgridRouter{nw: o.nw} }

type pgridRouter struct{ nw *pgrid.Network }

func (r pgridRouter) Route(src int, target keyspace.Key) Result {
	hops, owner := r.nw.Lookup(src, target)
	return Result{Hops: hops, Dest: owner, Arrived: owner == r.nw.Owner(target)}
}

// --- Symphony / Mercury ---

type symphonyOverlay struct {
	ringOverlay
	nw *symphony.Network
}

func buildSymphony(opts Options, mode symphony.Mode, kind string) (Overlay, error) {
	k := opts.Degree
	if k == 0 {
		// The same logarithmic default the small-world models use, so
		// cross-topology comparisons start from state parity.
		k = smallworld.Log2Degree()(opts.N)
	}
	nw, err := symphony.Build(symphony.Config{
		N: opts.N, K: k, Mode: mode, Dist: opts.Dist, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return wrapSymphony(nw, kind), nil
}

func wrapSymphony(nw *symphony.Network, kind string) *symphonyOverlay {
	n := nw.N()
	o := &symphonyOverlay{ringOverlay{kind: kind, keys: make([]keyspace.Key, n), out: make([][]int32, n)}, nw}
	for u := 0; u < n; u++ {
		o.keys[u] = nw.Key(u)
		o.out[u] = nw.Links(u)
	}
	return o
}

func (o *symphonyOverlay) Stats() Stats      { return statsOf(o) }
func (o *symphonyOverlay) NewRouter() Router { return symphonyRouter{nw: o.nw} }

type symphonyRouter struct{ nw *symphony.Network }

func (r symphonyRouter) Route(src int, target keyspace.Key) Result {
	hops, last := r.nw.Lookup(src, target)
	// Greedy with the exact tie-break terminates at minimal ring
	// distance; confirm against the sorted-point owner.
	owner := r.nw.Owner(target)
	arrived := keyspace.Ring.Distance(r.nw.Key(last), target) <=
		keyspace.Ring.Distance(r.nw.Key(owner), target)
	return Result{Hops: hops, Dest: last, Arrived: arrived}
}

// --- CAN ---

type canOverlay struct {
	ringOverlay
	nw *can.Network
}

func wrapCAN(nw *can.Network) *canOverlay {
	n := nw.N()
	o := &canOverlay{ringOverlay{kind: "can", keys: make([]keyspace.Key, n), out: make([][]int32, n)}, nw}
	for u := 0; u < n; u++ {
		o.keys[u] = keyspace.Clamp(nw.Zone(u).Center(nw.Dims())[0])
		o.out[u] = nw.Links(u)
	}
	return o
}

func (o *canOverlay) Stats() Stats      { return statsOf(o) }
func (o *canOverlay) NewRouter() Router { return canRouter{nw: o.nw} }

type canRouter struct{ nw *can.Network }

// canProbeCoord fixes the secondary coordinates of key-line probes.
// Zone boundaries are dyadic rationals (recursive midpoint splits), so
// an irrational constant keeps the probe line off every boundary; the
// cube midline 0.5 would sit exactly on the first split seam and stall
// greedy forwarding on distance-zero ties.
const canProbeCoord = 0.6180339887498949 // 1/φ

// Route probes the key line of the cube: the target key becomes the
// first (skewed) coordinate and the remaining coordinates hold a fixed
// off-boundary constant, so one-dimensional key targets remain
// comparable across overlays.
func (r canRouter) Route(src int, target keyspace.Key) Result {
	var p can.Point
	p[0] = float64(target)
	for i := 1; i < r.nw.Dims(); i++ {
		p[i] = canProbeCoord
	}
	hops, owner := r.nw.Lookup(src, p)
	return Result{Hops: hops, Dest: owner, Arrived: closureContains(r.nw.Zone(owner), p, r.nw.Dims())}
}

// closureContains reports whether p lies in the closed zone [Lo, Hi].
// Zone.Contains is half-open, but probe targets derived from node keys
// (zone midpoints, which are dyadic) can land exactly on a seam between
// zones; greedy forwarding legitimately stops at distance zero on either
// side, and both closures are correct owners of the boundary point.
func closureContains(z can.Zone, p can.Point, dims int) bool {
	for i := 0; i < dims; i++ {
		if p[i] < z.Lo[i] || p[i] > z.Hi[i] {
			return false
		}
	}
	return true
}
