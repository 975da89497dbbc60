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
// copy-on-write row blocks (adjStore, chunked.go), the writer's only
// out-adjacency: an event edits the rows it touches in place, one entry
// at a time, and CaptureSnapshot shares the blocks with the snapshot,
// so no event ever copies the whole adjacency.
// Identifiers are NOT sorted by node index — use Key like any other
// Dynamic overlay; Keys copies them.
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
	var link dist.Distribution // nil: links by key distance
	if cfg.Measure == smallworld.Mass {
		link = cfg.Dist
	}

	o := &incrementalOverlay{
		kind:     "incremental:" + name,
		topo:     cfg.Topology,
		d:        cfg.Dist,
		link:     link,
		exponent: cfg.Exponent,
		degree:   cfg.Degree,
		keysM:    newKeyStore(nw.Keys()),
		adj:      newAdjStore(n, nw.CSR().Out, 0), // neighbours and long links
		in:       newInLists(n, nw.LongRange),
		rng:      xrand.New(opts.Seed ^ incrementalSeedSalt),
	}
	order := make([]int32, n)
	for u := range order {
		order[u] = int32(u) // slots start out rank-ordered
	}
	o.rankM = newRankStore(nw.Keys(), order)
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
	d        dist.Distribution // key density: joiners draw identifiers from it
	link     dist.Distribution // link measure: mass under it, key distance when nil
	exponent float64
	degree   smallworld.DegreeFunc

	// Per-slot state; slots are stable across events. A slot's out-row
	// in adj is its only out-adjacency: its key-order neighbours and its
	// long-range links, ascending, each once. The in-lists mark which row
	// entries are long links (u links v long-range iff in.list(v) holds
	// u), which the row cannot tell when a long link is also a neighbour.
	// They are in event order, which handover's draws and Leave's repair
	// order read: they are never sorted.
	in *inLists // long-range in-links (who points here)

	// keysM holds every slot's identifier and rankM is the rank index
	// (identifiers in ascending order, with the slot holding each), both
	// only in chunked copy-on-write form. Every rank read — a slot's
	// position, its key-order neighbours (flanks), drawKey's membership
	// probe, drawTarget's NearestExcluding, the watcher's cells — goes
	// through rankM's in-place rankView, so a membership event shifts
	// entries within one chunk instead of O(N) flat arrays. adj holds
	// every slot's out-row; an event edits the rows it touches in place,
	// one entry at a time. CaptureSnapshot shares all three stores into
	// the published Snapshot for O(spine) cost.
	keysM *keyStore
	rankM *rankStore
	adj   *adjStore
	row   []int32 // scratch copy of the row being edited
	ins   []int32 // scratch copy of the in-list an event iterates

	rng *xrand.Stream

	// msgs meters protocol traffic and est holds each slot's walk
	// estimate of f. Both are nil except behind the "protocol" entry
	// (protocol.go), and est is nil there too under Options.Oracle.
	msgs *messageMeter
	est  *slotEstimates

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

// splitCell narrates node k's cell changing hands against its flanks
// f (slot ids, -1 when missing at a line end): the lower part of the
// cell trades with the predecessor, the upper with the successor, split
// at their boundary — exactly the ranges a join steals from its donors
// and a leave bequeaths to its inheritors. Identifier values are
// captured immediately, so the events stay valid across the slot
// renames a Leave performs later.
func (o *incrementalOverlay) splitCell(joined bool, k keyspace.Key, cell keyspace.Interval, f [2]int32) []OwnershipChange {
	p, s := f[0], f[1]
	switch {
	case p < 0 && s < 0:
		// Sole node: the whole space, with no counterparty.
		return []OwnershipChange{{Joined: joined, Node: k, Peer: k, Range: cell}}
	case p < 0:
		return []OwnershipChange{{Joined: joined, Node: k, Peer: o.Key(int(s)), Range: cell}}
	case s < 0 || p == s:
		// Line's top end, or a 2-node ring's single flank.
		return []OwnershipChange{{Joined: joined, Node: k, Peer: o.Key(int(p)), Range: cell}}
	}
	b := o.boundaryBetween(o.Key(int(p)), o.Key(int(s)))
	var out []OwnershipChange
	if lower := (keyspace.Interval{Lo: cell.Lo, Hi: b}); !lower.Empty() {
		out = append(out, OwnershipChange{Joined: joined, Node: k, Peer: o.Key(int(p)), Range: lower})
	}
	if upper := (keyspace.Interval{Lo: b, Hi: cell.Hi}); !upper.Empty() {
		out = append(out, OwnershipChange{Joined: joined, Node: k, Peer: o.Key(int(s)), Range: upper})
	}
	return out
}

func (o *incrementalOverlay) Kind() string           { return o.kind }
func (o *incrementalOverlay) N() int                 { return o.keysM.Len() }
func (o *incrementalOverlay) Key(u int) keyspace.Key { return o.keysM.At(u) }
func (o *incrementalOverlay) Stats() Stats           { return statsOf(o) }

// Keys copies every slot's identifier out of the chunked store: O(N)
// per call, so hot paths read Key(u).
func (o *incrementalOverlay) Keys() []keyspace.Key { return o.keysM.materialize() }

// Neighbors returns u's current out-row.
func (o *incrementalOverlay) Neighbors(u int) []int32 { return o.adj.Row(u) }

// posOf returns slot u's position in the rank index (exact: identifiers
// are unique by construction).
func (o *incrementalOverlay) posOf(u int32) rankPos {
	p, _ := o.rankM.posOf(o.Key(int(u)), u)
	return p
}

// flanks returns the slots of the key-order neighbours of the node at
// rank position p, predecessor first: cyclic on the ring, -1 past the
// line's ends, and -1 twice for a single node.
func (o *incrementalOverlay) flanks(p rankPos) [2]int32 {
	rs := o.rankM
	if rs.n < 2 {
		return [2]int32{-1, -1}
	}
	f := [2]int32{rs.slot(rs.prev(p)), rs.slot(rs.next(p))}
	if o.topo != keyspace.Ring {
		switch rs.rank(p) {
		case 0:
			f[0] = -1
		case rs.n - 1:
			f[1] = -1
		}
	}
	return f
}

// rewire edits the row of the node at rank position p to the key-order
// neighbours a splice gave it; was holds its flanks before the splice.
// A former neighbour leaves the row unless it is still a neighbour or
// the node links it long-range, which only the in-lists can tell: the
// row holds a neighbour that is also a long link once. New neighbours
// enter the row.
func (o *incrementalOverlay) rewire(p rankPos, was [2]int32) {
	now := o.flanks(p)
	if now == was {
		return
	}
	id := o.rankM.slot(p)
	row := append(o.row[:0], o.adj.Row(int(id))...)
	for _, x := range was {
		if x >= 0 && x != now[0] && x != now[1] && !slices.Contains(o.in.list(x), id) {
			row = deleteSorted(row, x)
		}
	}
	o.row = insertSorted(insertSorted(row, now[0]), now[1])
	o.adj.setRow(int(id), o.row)
}

// addLink installs the long-range link u→v: v enters u's row, which must
// not hold it yet, and u enters v's in-list.
func (o *incrementalOverlay) addLink(u, v int32) {
	o.editRow(u, -1, v)
	o.in.add(v, u)
}

// unlink removes the long-range link u→v, where vf holds v's flanks. v
// stays in u's row while it is a key-order neighbour of u, that is,
// while u is one of v's.
func (o *incrementalOverlay) unlink(u, v int32, vf [2]int32) {
	o.in.drop(v, u)
	if u != vf[0] && u != vf[1] {
		o.editRow(u, v, -1)
	}
}

// hasLink reports whether u's row holds v.
func (o *incrementalOverlay) hasLink(u, v int32) bool {
	_, ok := slices.BinarySearch(o.adj.Row(int(u)), v)
	return ok
}

// editRow rewrites u's ascending row with one setRow: from leaves it and
// to enters it, where -1 skips a side. A row that lacks from is left as
// it is, so renaming an entry a row does not hold does nothing.
func (o *incrementalOverlay) editRow(u, from, to int32) {
	if from >= 0 && !o.hasLink(u, from) {
		return
	}
	o.row = insertSorted(deleteSorted(append(o.row[:0], o.adj.Row(int(u))...), from), to)
	o.adj.setRow(int(u), o.row)
}

// insertSorted inserts v into the ascending s unless s holds it or v is
// -1 (a missing neighbour).
func insertSorted(s []int32, v int32) []int32 {
	if i, ok := slices.BinarySearch(s, v); !ok && v >= 0 {
		return slices.Insert(s, i, v)
	}
	return s
}

// deleteSorted removes v from the ascending s if s holds it.
func deleteSorted(s []int32, v int32) []int32 {
	if i, ok := slices.BinarySearch(s, v); ok {
		return slices.Delete(s, i, i+1)
	}
	return s
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
	boot := int32(-1)
	if o.msgs != nil {
		boot = o.locate(k)
	}
	id := int32(o.N())
	o.keysM.push(k)
	o.adj.push()
	o.in.push()

	// The newcomer lands after lo (at least two nodes are live); rewire
	// compares the flanks of lo and the rank after it with their old ones.
	rs := o.rankM
	at := rs.seek(k)
	lo := rs.prev(at)
	was := [2][2]int32{o.flanks(lo), o.flanks(rs.next(lo))}
	p := rs.insert(at, k, id)
	o.rewire(rs.prev(p), was[0])
	o.rewire(p, [2]int32{-1, -1})
	o.rewire(rs.next(p), was[1])
	f := o.flanks(p)
	if o.est != nil {
		o.est.join(o, id, boot, f)
	}

	m := o.degree(o.N())
	o.handover(p, f)
	o.sampleInto(id, m)
	if o.watcher != nil {
		// The newcomer's cell was stolen from its flanks, split at their
		// former mutual boundary.
		cell := rs.Cell(o.topo, rs.rank(p))
		for _, ch := range o.splitCell(true, k, cell, f) {
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
// baseline instead of decaying under sustained churn. The newcomer
// sits at rank position p between its flanks f.
func (o *incrementalOverlay) handover(p rankPos, f [2]int32) {
	rs := o.rankM
	w := rs.slot(p)
	vfs := [2][2]int32{o.flanks(rs.prev(p)), o.flanks(rs.next(p))} // each flank's flanks
	for side, v := range f {
		if v < 0 || (side == 1 && f[1] == f[0]) {
			continue // missing flank, or a 2-node ring's single flank
		}
		vf := vfs[side]
		frac := o.stolenFrac(w, v, f, vf)
		if frac <= 0 {
			continue
		}
		// Iterate a copy: redirecting mutates the in-list.
		o.ins = append(o.ins[:0], o.in.list(v)...)
		for _, u := range o.ins {
			if !o.rng.Bool(frac) {
				continue
			}
			if u == w || o.hasLink(u, w) {
				continue
			}
			o.unlink(u, v, vf)
			o.addLink(u, w)
		}
	}
}

// stolenFrac returns the fraction of flank v's key-resolution range
// that newcomer w took over: half the arc between w and v's far
// boundary, normalised by v's previous range (flanking midpoints, or
// the interval edge at the line's ends). wf and vf hold the flanks of
// w and v.
func (o *incrementalOverlay) stolenFrac(w, v int32, wf, vf [2]int32) float64 {
	key := func(x int32) float64 { return float64(o.Key(int(x))) }
	// gap is the directed key-space arc from a up to its rank-successor
	// b — NOT the min-arc Topology.Distance, which would take the
	// complement of any neighbour gap longer than half the ring
	// (sparse or heavily skewed populations have such gaps).
	gap := func(a, b int32) float64 {
		d := key(b) - key(a)
		if o.topo == keyspace.Ring {
			return float64(keyspace.Wrap(d))
		}
		return math.Abs(d)
	}
	var num, den float64
	if v == wf[0] { // w sits above v: v loses its upper slice
		if s := wf[1]; s >= 0 && s != v { // v's previous upper flank
			num = gap(w, s)
			den = gap(v, s)
		} else { // v was the line's top: its range ran to the edge
			num = 2 - key(v) - key(w)
			den = 2 * (1 - key(v))
		}
		if p := vf[0]; p >= 0 && p != v {
			den += gap(p, v)
		} else {
			den += 2 * key(v)
		}
	} else { // w sits below v: v loses its lower slice
		if p := wf[0]; p >= 0 && p != v { // v's previous lower flank
			num = gap(p, w)
			den = gap(p, v)
		} else { // v was the line's bottom: its range ran to the edge
			num = key(v) + key(w)
			den = 2 * key(v)
		}
		if s := vf[1]; s >= 0 && s != v {
			den += gap(v, s)
		} else {
			den += 2 * (1 - key(v))
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
	n := o.N()
	if u < 0 || u >= n {
		return fmt.Errorf("overlaynet: leave of unknown node %d", u)
	}
	if n <= 2 {
		return fmt.Errorf("overlaynet: leave at %d nodes, need at least 2 remaining", n)
	}
	uid := int32(u)
	rs := o.rankM
	at := o.posOf(uid)
	// The leaver's flanks, and theirs before the splice changes them.
	uf := o.flanks(at)
	was := [2][2]int32{o.flanks(rs.prev(at)), o.flanks(rs.next(at))}

	// Narrate the leaver's cell being bequeathed to its flanks before any
	// state is torn down (identifier values are captured immediately; the
	// watcher itself runs after the event completes).
	var changes []OwnershipChange
	if o.watcher != nil {
		cell := rs.Cell(o.topo, rs.rank(at))
		changes = o.splitCell(false, o.Key(u), cell, uf)
	}

	// The departing node's own links stop existing; for a neighbour it
	// does not also link long-range, drop finds nothing.
	for _, t := range o.adj.Row(int(uid)) {
		o.in.drop(t, uid)
	}
	// Peers holding a link to the departed node lose it now and get a
	// replacement drawn after the membership change is complete. This
	// empties the departed node's in-list, so the splice below drops it
	// from its flanks' rows too.
	o.ins = append(o.ins[:0], o.in.list(uid)...)
	repair := o.ins
	for _, w := range repair {
		o.unlink(w, uid, uf)
	}

	// Splice u out of the rank index; its former flanks become
	// key-order neighbours of each other.
	next := rs.remove(at)
	o.rewire(rs.prev(next), was[0])
	o.rewire(next, was[1])

	// Move the last slot into the hole so slots stay dense. Everything
	// that mentions the old id — rank index, rows of its flanks, rows of
	// its in-neighbours, in-lists of its targets — is renamed. No row
	// holds u any more, so a rename cannot collide.
	last := int32(n - 1)
	if uid != last {
		lp := o.posOf(last)
		o.keysM.set(int(uid), o.Key(int(last)))
		o.in.move(uid, last)
		rs.setSlot(lp, uid)
		o.row = append(o.row[:0], o.adj.Row(int(last))...)
		o.adj.setRow(int(uid), o.row)
		for _, t := range o.row {
			o.in.rename(t, last, uid)
		}
		// A slot that is both a flank and an in-neighbour is renamed
		// once: the second editRow finds no last in its row.
		for _, x := range o.flanks(lp) {
			if x >= 0 {
				o.editRow(x, last, uid)
			}
		}
		for _, w := range o.in.list(uid) {
			o.editRow(w, last, uid)
		}
		for i, w := range repair {
			if w == last {
				repair[i] = uid
			}
		}
	}
	o.keysM.pop()
	o.adj.pop()
	o.in.pop()
	if o.est != nil {
		o.est.remove(uid)
	}

	// Repair: one replacement draw per broken link.
	for _, w := range repair {
		if o.sampleInto(w, 1) > 0 {
			o.repairs++
		}
	}
	if o.watcher != nil {
		for _, ch := range changes {
			o.watcher(ch)
		}
	}
	return nil
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

// sampleInto draws up to m more long-range links for node u (fewer when
// the attempt budget runs out), rejecting itself and every slot its row
// already holds: its key-order neighbours and existing links. It
// returns how many links were placed. The node's link measure,
// measure position and rank are fixed for the whole call (membership
// cannot change mid-event), so they and the draw's constants are
// computed once, not per attempt. A draw that finds no eligible offset
// still counts in o.draws.
func (o *incrementalOverlay) sampleInto(u int32, m int) int {
	// Without the oracle, a slot draws by mass under its own estimates
	// of f and N.
	f, lo := o.link, 1/float64(o.N())
	if o.est != nil {
		f, lo = o.est.fit[u], 1/o.est.size[u]
	}
	pos := float64(o.Key(int(u)))
	if f != nil {
		pos = f.CDF(pos)
	}
	md, ok := smallworld.NewMeasureDraw(o.topo, pos, o.exponent, lo)
	rank := o.rankM.rank(o.posOf(u))
	placed, misses := 0, 0 // misses: failed draws since the last placed link
	for placed < m && misses < maxDrawAttempts {
		o.draws++
		v := int32(-1) // no eligible offset
		if ok {
			v = int32(o.drawTarget(u, f, &md, rank))
		}
		if v < 0 || v == u || o.hasLink(u, v) {
			misses++
			continue
		}
		o.addLink(u, v)
		if o.est != nil {
			o.est.observe(u, o.Key(int(v)))
		}
		o.placed++
		placed, misses = placed+1, 0
	}
	return placed
}

// drawTarget performs one Section 4.2 link draw for node u at the given
// rank: a measure-space offset from md (the identical draw the offline
// Protocol sampler uses), mapped back to a key through f (key distance
// when f is nil) and resolved to the nearest other peer. It returns the
// chosen slot, or -1 when the rank index has fewer than two entries.
func (o *incrementalOverlay) drawTarget(u int32, f dist.Distribution, md *smallworld.MeasureDraw, rank int) int {
	target := md.Draw(o.rng)
	var key keyspace.Key
	if f != nil {
		if target < 0 {
			target = 0
		}
		if target > 1 {
			target = 1
		}
		key = keyspace.Clamp(f.Quantile(target))
	} else {
		key = keyspace.Clamp(target)
	}
	if o.msgs != nil {
		o.meterDraw(u, key)
	}
	nearest, p := o.rankM.nearestExcluding(o.topo, key, rank)
	if nearest < 0 {
		return -1
	}
	return int(o.rankM.slot(p))
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
