package overlaynet

import (
	"context"
	"fmt"
	"math"
	"slices"

	"smallworld"
	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// NewIncremental wraps one of the offline small-world constructors
// ("smallworld-uniform", "smallworld-skewed", "kleinberg") as a Dynamic
// overlay with incremental churn repair: a Join samples one identifier
// and the newcomer's own long-range links; a Leave splices the key-order
// ring and re-draws one replacement link for each peer that pointed at
// the departed node. Every membership event therefore costs O(k) link
// draws (k = outdegree) instead of NewRebuild's full O(N·k)
// reconstruction — the local-rewiring dynamics of the adaptive
// small-world literature, applied to the paper's constructions.
//
// Link draws follow the Section 4.2 protocol rule the offline
// constructors use: an offset with density ∝ m^-r over the eligible
// measure range (geometric distance for the uniform/Kleinberg models,
// probability mass for the skew-adapted model), resolved to the nearest
// live peer. Eligibility tracks the live population (MinMeasure = 1/N
// at the current N), so the link-length distribution adapts as the
// overlay grows and shrinks.
//
// Internally node slots are stable: indices are join order, not key
// rank, so a membership event never renumbers the population (a Leave
// moves only the last slot into the hole). Out-rows live in
// copy-on-write row blocks (adjStore, chunked.go): an event rewrites
// the rows it touches in place, and CaptureSnapshot shares the blocks
// with the snapshot, so no event ever copies the whole adjacency.
// Identifiers are NOT sorted by node index — use Keys()/Key like any
// other Dynamic overlay.
func NewIncremental(ctx context.Context, name string, opts Options) (Dynamic, error) {
	base, err := Build(ctx, name, opts)
	if err != nil {
		return nil, err
	}
	sw, ok := base.(interface {
		Network() *smallworld.Network
	})
	if !ok {
		return nil, fmt.Errorf("overlaynet: topology %q is not an offline small-world constructor", name)
	}
	nw := sw.Network()
	cfg := nw.Config()
	n := nw.N()

	o := &incrementalOverlay{
		kind:     "incremental:" + name,
		topo:     cfg.Topology,
		d:        cfg.Dist,
		mass:     cfg.Measure == smallworld.Mass,
		exponent: cfg.Exponent,
		degree:   cfg.Degree,
		keys:     append([]keyspace.Key(nil), nw.Keys()...),
		long:     make([][]int32, n),
		in:       make([][]int32, n),
		succ:     make([]int32, n),
		pred:     make([]int32, n),
		adj:      newAdjStore(n, nw.CSR().Out),
		rng:      xrand.New(opts.Seed ^ incrementalSeedSalt),
	}
	order := make([]int32, n)
	for u := 0; u < n; u++ {
		o.long[u] = append([]int32(nil), nw.LongRange(u)...)
		order[u] = int32(u) // slots start out rank-ordered
		for _, v := range o.long[u] {
			o.in[v] = append(o.in[v], int32(u))
		}
	}
	o.rankM = newRankStore(nw.Keys(), order)
	for rank := 0; rank < n; rank++ {
		o.wireRank(rank)
	}
	o.keysM = newKeyStore(o.keys)
	return o, nil
}

const (
	// incrementalSeedSalt decorrelates the churn stream from the
	// construction stream derived from the same Options.Seed.
	incrementalSeedSalt = 0xd1b54a32d192ed03

	// maxDrawAttempts bounds re-draws per link, as in the offline
	// samplers.
	maxDrawAttempts = 64
)

// incrementalOverlay is the mutable state behind NewIncremental.
type incrementalOverlay struct {
	kind     string
	topo     keyspace.Topology
	d        dist.Distribution
	mass     bool
	exponent float64
	degree   smallworld.DegreeFunc

	// Per-slot state; slots are stable across events.
	keys []keyspace.Key
	long [][]int32 // long-range out-links
	in   [][]int32 // long-range in-links (who points here)
	succ []int32   // key-order successor (-1 at the line's top end)
	pred []int32   // key-order predecessor (-1 at the line's bottom end)

	// keysM is a chunked copy-on-write mirror of keys, written through
	// on every mutation; rankM is the rank index (identifiers in
	// ascending order, with the slot holding each), kept only in chunked
	// form. Every rank read — rankOf, wireRank, drawKey's membership
	// probe, drawTarget's NearestExcluding, the watcher's cells — goes
	// through rankM's in-place rankView, so a membership event shifts
	// entries within one chunk instead of O(N) flat arrays. adj holds
	// every slot's out-row, rebuilt from pred/succ/long by markDirty.
	// CaptureSnapshot shares all three stores into the published
	// Snapshot for O(spine) cost.
	keysM *keyStore
	rankM *rankStore
	adj   *adjStore
	row   []int32 // markDirty's scratch

	rng *xrand.Stream

	// watcher, when installed, narrates membership events as typed
	// ownership transfers (see OwnershipReporter).
	watcher func(OwnershipChange)

	draws   int64 // link-draw attempts (the build-equivalent operation)
	placed  int64 // links actually installed
	repairs int64 // links replaced after a departure
}

// SetOwnershipWatcher implements OwnershipReporter. The watcher runs
// synchronously inside Join/Leave after the overlay's state reflects
// the event; it must not call back into the overlay.
func (o *incrementalOverlay) SetOwnershipWatcher(fn func(OwnershipChange)) { o.watcher = fn }

// boundaryBetween returns the ownership boundary between two adjacent
// identifiers — where their cells meet once nothing sits between them.
func (o *incrementalOverlay) boundaryBetween(a, b keyspace.Key) keyspace.Key {
	if o.topo == keyspace.Ring {
		return keyspace.MidpointRing(a, b)
	}
	return keyspace.Key((float64(a) + float64(b)) / 2)
}

// splitCell narrates node k's cell changing hands against its flanks p
// and s (slot ids, -1 when missing at a line end): the lower part of
// the cell trades with p, the upper with s, split at the p–s boundary —
// exactly the ranges a join steals from its donors and a leave bequeaths
// to its inheritors. Identifier values are captured immediately, so the
// events stay valid across the slot renames a Leave performs later.
func (o *incrementalOverlay) splitCell(joined bool, k keyspace.Key, cell keyspace.Interval, p, s int32) []OwnershipChange {
	switch {
	case p < 0 && s < 0:
		// Sole node: the whole space, with no counterparty.
		return []OwnershipChange{{Joined: joined, Node: k, Peer: k, Range: cell}}
	case p < 0:
		return []OwnershipChange{{Joined: joined, Node: k, Peer: o.keys[s], Range: cell}}
	case s < 0 || p == s:
		// Line's top end, or a 2-node ring's single flank.
		return []OwnershipChange{{Joined: joined, Node: k, Peer: o.keys[p], Range: cell}}
	}
	b := o.boundaryBetween(o.keys[p], o.keys[s])
	var out []OwnershipChange
	if lower := (keyspace.Interval{Lo: cell.Lo, Hi: b}); !lower.Empty() {
		out = append(out, OwnershipChange{Joined: joined, Node: k, Peer: o.keys[p], Range: lower})
	}
	if upper := (keyspace.Interval{Lo: b, Hi: cell.Hi}); !upper.Empty() {
		out = append(out, OwnershipChange{Joined: joined, Node: k, Peer: o.keys[s], Range: upper})
	}
	return out
}

func (o *incrementalOverlay) Kind() string           { return o.kind }
func (o *incrementalOverlay) N() int                 { return len(o.keys) }
func (o *incrementalOverlay) Key(u int) keyspace.Key { return o.keys[u] }
func (o *incrementalOverlay) Keys() []keyspace.Key   { return o.keys }
func (o *incrementalOverlay) Stats() Stats           { return statsOf(o) }

// Neighbors returns u's current out-row.
func (o *incrementalOverlay) Neighbors(u int) []int32 { return o.adj.Row(u) }

// Ops reports the cumulative churn-repair work in build-equivalent
// operations: link-draw attempts, links placed, and departure repairs.
// A full rebuild costs ≥ N·k placed links per event; these counters are
// what the ≥50×-fewer-operations benchmark reads.
func (o *incrementalOverlay) Ops() (draws, placed, repairs int64) {
	return o.draws, o.placed, o.repairs
}

// rankOf returns node u's position in key order (exact: identifiers are
// unique by construction).
func (o *incrementalOverlay) rankOf(u int) int {
	return o.rankM.rankOf(o.keys[u], int32(u))
}

// wireRank points the node at the given rank at its key-order
// neighbours (cyclic on the ring, -1 sentinels at the line's ends).
func (o *incrementalOverlay) wireRank(rank int) {
	rs := o.rankM
	n := rs.n
	id := rs.SlotAt(rank)
	if o.topo == keyspace.Ring {
		o.pred[id] = rs.SlotAt((rank - 1 + n) % n)
		o.succ[id] = rs.SlotAt((rank + 1) % n)
		if o.pred[id] == id {
			o.pred[id], o.succ[id] = -1, -1 // single node
		}
		return
	}
	if rank > 0 {
		o.pred[id] = rs.SlotAt(rank - 1)
	} else {
		o.pred[id] = -1
	}
	if rank+1 < n {
		o.succ[id] = rs.SlotAt(rank + 1)
	} else {
		o.succ[id] = -1
	}
}

// markDirty rebuilds node u's out-row from its current neighbour and
// long-range links (sorted, deduplicated — a repair can transiently
// make a long link coincide with a neighbouring edge).
func (o *incrementalOverlay) markDirty(u int32) {
	if u < 0 {
		return
	}
	row := o.row[:0]
	if o.pred[u] >= 0 {
		row = append(row, o.pred[u])
	}
	if o.succ[u] >= 0 {
		row = append(row, o.succ[u])
	}
	row = append(row, o.long[u]...)
	slices.Sort(row)
	o.row = slices.Compact(row)
	o.adj.setRow(int(u), o.row)
}

// Topology returns the key-space geometry the overlay routes under.
func (o *incrementalOverlay) Topology() keyspace.Topology { return o.topo }

// CaptureSnapshot implements Snapshotter. The identifiers, the rank
// index and the out-rows are shared structurally through the chunked
// COW stores — the capture copies only their spines, O(N/chunk), and
// the writer clones a chunk or block the first time it touches it
// afterwards, so an epoch of Δ events costs O(Δ·chunk + N/chunk)
// instead of O(N+M) flat copies (see BenchmarkPublishEpoch).
func (o *incrementalOverlay) CaptureSnapshot() *Snapshot {
	return &Snapshot{
		kind: o.kind,
		topo: o.topo,
		keys: o.keysM.capture(),
		adj:  o.adj.capture(),
		rank: o.rankM.capture(),
	}
}

// Join implements Dynamic: draw one identifier, splice the newcomer
// into key order, and sample only its own long-range links.
func (o *incrementalOverlay) Join(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	k, err := o.drawKey()
	if err != nil {
		return err
	}
	id := int32(len(o.keys))
	o.keys = append(o.keys, k)
	o.keysM.push(k)
	o.adj.push()
	o.long = append(o.long, nil)
	o.in = append(o.in, nil)
	o.succ = append(o.succ, -1)
	o.pred = append(o.pred, -1)

	rank := o.rankM.succIdx(k)
	o.rankM.insert(rank, k, id)

	n := len(o.keys)
	o.wireRank((rank - 1 + n) % n)
	o.wireRank(rank)
	o.wireRank((rank + 1) % n)
	o.markDirty(o.pred[id])
	o.markDirty(o.succ[id])

	m := o.degree(n)
	o.handover(id)
	o.sampleInto(id, m)
	o.markDirty(id)
	if o.watcher != nil {
		// The newcomer's cell was stolen from its flanks, split at their
		// former mutual boundary.
		cell := o.rankM.Cell(o.topo, rank)
		for _, ch := range o.splitCell(true, k, cell, o.pred[id], o.succ[id]) {
			o.watcher(ch)
		}
	}
	return nil
}

// handover re-points a share of the rank-neighbours' long-range
// in-links at the newcomer — the join-time transfer of in-pointers
// every deployed DHT performs when a newcomer takes over part of its
// neighbours' key range. Links resolve to the peer nearest their drawn
// key; the newcomer now owns a slice of each flank's resolution range,
// so each in-link of a flank re-points with probability equal to the
// stolen share of that range. This is what keeps the newcomer's
// in-degree (and hence hop quantiles) tracking the full-rebuild
// baseline instead of decaying under sustained churn.
func (o *incrementalOverlay) handover(w int32) {
	p, s := o.pred[w], o.succ[w]
	for side := 0; side < 2; side++ {
		v := p
		if side == 1 {
			v = s
		}
		if v < 0 || v == w || (side == 1 && s == p) {
			continue // missing flank, or a 2-node ring's single flank
		}
		frac := o.stolenFrac(v, w)
		if frac <= 0 {
			continue
		}
		// Iterate a snapshot: redirecting mutates the in-list.
		ins := append([]int32(nil), o.in[v]...)
		for _, u := range ins {
			if !o.rng.Bool(frac) {
				continue
			}
			if u == w || o.pred[u] == w || o.succ[u] == w || hasTarget(o.long[u], w) {
				continue
			}
			o.dropTarget(u, v)
			o.dropIn(v, u)
			o.long[u] = append(o.long[u], w)
			o.in[w] = append(o.in[w], u)
			o.markDirty(u)
		}
	}
}

// stolenFrac returns the fraction of flank v's key-resolution range
// that newcomer w took over: half the arc between w and v's far
// boundary, normalised by v's previous range (flanking midpoints, or
// the interval edge at the line's ends).
func (o *incrementalOverlay) stolenFrac(v, w int32) float64 {
	// gap is the directed key-space arc from a up to its rank-successor
	// b — NOT the min-arc Topology.Distance, which would take the
	// complement of any neighbour gap longer than half the ring
	// (sparse or heavily skewed populations have such gaps).
	gap := func(a, b int32) float64 {
		d := float64(o.keys[b]) - float64(o.keys[a])
		if o.topo == keyspace.Ring {
			return float64(keyspace.Wrap(d))
		}
		return math.Abs(d)
	}
	var num, den float64
	if v == o.pred[w] { // w sits above v: v loses its upper slice
		if s := o.succ[w]; s >= 0 && s != v { // v's previous upper flank
			num = gap(w, s)
			den = gap(v, s)
		} else { // v was the line's top: its range ran to the edge
			num = 2 - float64(o.keys[v]) - float64(o.keys[w])
			den = 2 * (1 - float64(o.keys[v]))
		}
		if p := o.pred[v]; p >= 0 && p != v {
			den += gap(p, v)
		} else {
			den += 2 * float64(o.keys[v])
		}
	} else { // w sits below v: v loses its lower slice
		if p := o.pred[w]; p >= 0 && p != v { // v's previous lower flank
			num = gap(p, w)
			den = gap(p, v)
		} else { // v was the line's bottom: its range ran to the edge
			num = float64(o.keys[v]) + float64(o.keys[w])
			den = 2 * float64(o.keys[v])
		}
		if s := o.succ[v]; s >= 0 && s != v {
			den += gap(v, s)
		} else {
			den += 2 * (1 - float64(o.keys[v]))
		}
	}
	if den <= 0 {
		return 0
	}
	f := num / den
	if f > 1 {
		f = 1
	}
	return f
}

// Leave implements Dynamic: splice u out of key order, move the last
// slot into the hole, and re-draw one replacement link for each peer
// that pointed at the departed node.
func (o *incrementalOverlay) Leave(ctx context.Context, u int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := len(o.keys)
	if u < 0 || u >= n {
		return fmt.Errorf("overlaynet: leave of unknown node %d", u)
	}
	if n <= 2 {
		return fmt.Errorf("overlaynet: leave at %d nodes, need at least 2 remaining", n)
	}
	uid := int32(u)

	// Narrate the leaver's cell being bequeathed to its flanks before any
	// state is torn down (identifier values are captured immediately; the
	// watcher itself runs after the event completes).
	var changes []OwnershipChange
	if o.watcher != nil {
		cell := o.rankM.Cell(o.topo, o.rankOf(u))
		changes = o.splitCell(false, o.keys[uid], cell, o.pred[uid], o.succ[uid])
	}

	// The departing node's own links stop existing.
	for _, t := range o.long[uid] {
		o.dropIn(t, uid)
	}
	// Peers holding a link to the departed node lose it now and get a
	// replacement drawn after the membership change is complete.
	repair := append([]int32(nil), o.in[uid]...)
	for _, w := range repair {
		o.dropTarget(w, uid)
		o.markDirty(w)
	}
	o.long[uid], o.in[uid] = nil, nil

	// Splice u out of the rank index; its former flanks become
	// key-order neighbours of each other.
	rank := o.rankOf(u)
	o.rankM.remove(rank)
	nn := n - 1
	o.wireRank((rank - 1 + nn) % nn)
	o.wireRank(rank % nn)
	o.markDirty(o.rankM.SlotAt((rank - 1 + nn) % nn))
	o.markDirty(o.rankM.SlotAt(rank % nn))

	// Move the last slot into the hole so slots stay dense. Everything
	// that mentions the old id — rank index, neighbour pointers of its
	// flanks, rows of its in-neighbours, in-lists of its targets — is
	// renamed, and every renamed row is dirtied.
	last := int32(n - 1)
	if uid != last {
		o.keys[uid] = o.keys[last]
		o.keysM.set(int(uid), o.keys[last])
		o.long[uid] = o.long[last]
		o.in[uid] = o.in[last]
		o.succ[uid] = o.succ[last]
		o.pred[uid] = o.pred[last]
		o.rankM.setSlot(o.rankOf(int(last)), uid)
		if p := o.pred[uid]; p >= 0 {
			o.succ[p] = uid
			o.markDirty(p)
		}
		if s := o.succ[uid]; s >= 0 {
			o.pred[s] = uid
			o.markDirty(s)
		}
		for _, t := range o.long[uid] {
			o.renameIn(t, last, uid)
		}
		for _, w := range o.in[uid] {
			o.renameTarget(w, last, uid)
			o.markDirty(w)
		}
		for i, w := range repair {
			if w == last {
				repair[i] = uid
			}
		}
		o.markDirty(uid)
	}
	o.keys = o.keys[:n-1]
	o.keysM.pop()
	o.adj.pop()
	o.long = o.long[:n-1]
	o.in = o.in[:n-1]
	o.succ = o.succ[:n-1]
	o.pred = o.pred[:n-1]

	// Repair: one replacement draw per broken link.
	for _, w := range repair {
		if o.sampleInto(w, len(o.long[w])+1) > 0 {
			o.repairs++
		}
		o.markDirty(w)
	}
	if o.watcher != nil {
		for _, ch := range changes {
			o.watcher(ch)
		}
	}
	return nil
}

// dropIn removes w from t's in-list.
func (o *incrementalOverlay) dropIn(t, w int32) {
	in := o.in[t]
	for i, x := range in {
		if x == w {
			in[i] = in[len(in)-1]
			o.in[t] = in[:len(in)-1]
			return
		}
	}
}

// renameIn rewrites from→to in t's in-list.
func (o *incrementalOverlay) renameIn(t, from, to int32) {
	for i, x := range o.in[t] {
		if x == from {
			o.in[t][i] = to
			return
		}
	}
}

// dropTarget removes t from w's long links.
func (o *incrementalOverlay) dropTarget(w, t int32) {
	long := o.long[w]
	for i, x := range long {
		if x == t {
			long[i] = long[len(long)-1]
			o.long[w] = long[:len(long)-1]
			return
		}
	}
}

// renameTarget rewrites from→to in w's long links.
func (o *incrementalOverlay) renameTarget(w, from, to int32) {
	for i, x := range o.long[w] {
		if x == from {
			o.long[w][i] = to
			return
		}
	}
}

// drawKey samples a fresh identifier from the density, nudging float
// collisions apart exactly like the offline key placement.
func (o *incrementalOverlay) drawKey() (keyspace.Key, error) {
	for attempt := 0; attempt < maxDrawAttempts; attempt++ {
		k := keyspace.Clamp(o.d.Quantile(o.rng.Float64()))
		for o.rankM.Has(k) {
			next := keyspace.Key(math.Nextafter(float64(k), 1))
			if next >= 1 {
				k = 0 // fell off the top: restart the probe from 0
				continue
			}
			k = next
		}
		if k.Valid() && !o.rankM.Has(k) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("overlaynet: could not draw a fresh identifier")
}

// sampleInto draws long-range links for node u until it holds m of them
// (or the attempt budget runs out), excluding itself, its key-order
// neighbours and its existing links. It returns how many links were
// placed and keeps the in-lists consistent. The node's measure position
// and rank are fixed for the whole call (membership cannot change
// mid-event), so they are computed once, not per attempt.
func (o *incrementalOverlay) sampleInto(u int32, m int) int {
	pos := float64(o.keys[u])
	if o.mass {
		pos = o.d.CDF(pos)
	}
	rank := o.rankOf(int(u))
	placed := 0
	for len(o.long[u]) < m {
		ok := false
		for attempt := 0; attempt < maxDrawAttempts; attempt++ {
			o.draws++
			v := o.drawTarget(pos, rank)
			if v < 0 || v == int(u) || int32(v) == o.pred[u] || int32(v) == o.succ[u] {
				continue
			}
			if hasTarget(o.long[u], int32(v)) {
				continue
			}
			o.long[u] = append(o.long[u], int32(v))
			o.in[v] = append(o.in[v], u)
			o.placed++
			placed++
			ok = true
			break
		}
		if !ok {
			break
		}
	}
	return placed
}

func hasTarget(long []int32, v int32) bool {
	for _, x := range long {
		if x == v {
			return true
		}
	}
	return false
}

// drawTarget performs one Section 4.2 link draw for the node at the
// given measure position and rank, at the current population: a
// measure-space offset with density ∝ m^-r over the eligible range
// [1/N, maxM] (smallworld.DrawMeasureTarget — the identical draw the
// offline Protocol sampler uses), mapped back to a key and resolved to
// the nearest other peer. It returns the chosen slot, or -1 when no
// eligible offset exists.
func (o *incrementalOverlay) drawTarget(pos float64, rank int) int {
	lo := 1 / float64(len(o.keys))
	target, ok := smallworld.DrawMeasureTarget(o.rng, o.topo, pos, o.exponent, lo)
	if !ok {
		return -1
	}
	var key keyspace.Key
	if o.mass {
		if target < 0 {
			target = 0
		}
		if target > 1 {
			target = 1
		}
		key = keyspace.Clamp(o.d.Quantile(target))
	} else {
		key = keyspace.Clamp(target)
	}
	nearest := o.rankM.NearestExcluding(o.topo, key, rank)
	if nearest < 0 {
		return -1
	}
	return int(o.rankM.SlotAt(nearest))
}

// NewRouter returns a router over the live overlay: each Route walks
// the writer's current key, row and rank views through the snapshot
// walk, without capturing them. Like any Dynamic router it must not
// run concurrently with Join or Leave.
func (o *incrementalOverlay) NewRouter() Router { return &liveRouter{o: o} }

type liveRouter struct {
	o *incrementalOverlay
	s Snapshot
	r SnapshotRouter
}

func (r *liveRouter) Route(src int, target keyspace.Key) Result {
	o := r.o
	r.s.topo, r.s.keys, r.s.adj, r.s.rank = o.topo, o.keysM.keyView, o.adj.adjView, o.rankM.rankView
	r.r.Rebind(&r.s)
	return r.r.Route(src, target)
}
