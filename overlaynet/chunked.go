package overlaynet

import (
	"math"
	"slices"

	"smallworld/graph"
	"smallworld/keyspace"
)

// This file implements the structural-sharing backing stores behind
// Snapshot: persistent chunked arrays with copy-on-write chunks.
//
// The writer (the incremental overlay) keeps its identifiers, rank
// index, rows and in-lists only here, in chunks behind a spine of
// pointers, and reads them in place. CaptureSnapshot copies
// only the spine (O(N/chunk) pointers) and marks every chunk shared;
// the writer then clones a chunk the first time it touches it after a
// capture (copy-on-write), so an epoch with Δ membership events costs
// O(Δ·chunk + N/chunk) instead of the O(N+M) flat copies a capture of
// flat arrays would need. Snapshots hold immutable views: a frozen
// spine that no writer ever mutates through.
//
// Three stores exist because the three snapshot arrays have different
// shapes:
//
//   - keyStore:  slot-indexed identifiers (Snapshot.keys). Slots are
//     append/truncate-only plus point writes (a Leave's last-slot
//     rename), so fixed 1024-entry chunks with shift/mask indexing
//     work directly.
//   - rankStore: the sorted rank index (identifier and slot per rank,
//     as parallel arrays). Rank positions shift on every insert/remove,
//     which would touch O(N/chunk) chunks if chunks were fixed-size —
//     so rank chunks are variable-length (split at 512, built at 256)
//     and a small cumulative-count spine locates a rank, and a fence of
//     chunk maxima a key, in O(log #chunks). An insert shifts entries
//     within ONE chunk. The
//     store embeds the rankView it would hand out, so the writer's
//     searches and the snapshots' searches are the same code.
//   - adjStore:  slot-indexed rows of slots, in blocks of a fixed
//     number of slots: the out-rows (Snapshot.adj), and the writer's
//     in-lists in a second store that is never captured (inLists).
//     Rows vary in length (Log2Degree gives late joiners longer ones),
//     so a block is a block-local CSR and a row edit shifts targets
//     within ONE block. Like rankStore, the key and row stores embed
//     the view they hand out.

const (
	keyChunkShift = 10
	keyChunkLen   = 1 << keyChunkShift // 8 KiB of keys per chunk
	keyChunkMask  = keyChunkLen - 1

	rankChunkCap  = 512 // split threshold
	rankChunkFill = 256 // initial fill, leaving headroom for inserts

	adjBlockShift = 4
	adjBlockLen   = 1 << adjBlockShift // rows per block
	adjBlockMask  = adjBlockLen - 1
	adjSpanShift  = 6
	adjSpanLen    = 1 << adjSpanShift // blocks per span
	adjSpanMask   = adjSpanLen - 1

	adjSpanRowShift = adjBlockShift + adjSpanShift // rows per span: 1<<adjSpanRowShift
)

// keyChunk is one immutable-once-shared block of slot identifiers.
type keyChunk [keyChunkLen]keyspace.Key

// keyView is a frozen slot→key mapping shared into a Snapshot. The
// spine slice is owned by the view; the chunks it points at are
// immutable (the writer clones before mutating a shared chunk).
type keyView struct {
	spine []*keyChunk
	n     int
}

// At returns slot u's identifier: two dependent loads, no bounds math
// beyond shift/mask — the zero-alloc indexed read the routers use.
func (v keyView) At(u int) keyspace.Key { return v.spine[u>>keyChunkShift][u&keyChunkMask] }

// Len returns the number of slots.
func (v keyView) Len() int { return v.n }

// materialize copies the view into a fresh flat slice — the O(N)
// compatibility path behind Keys() (cached by a Snapshot, not by the
// writer), never on the routing hot path.
func (v keyView) materialize() []keyspace.Key {
	out := make([]keyspace.Key, v.n)
	for j, ch := range v.spine {
		copy(out[j<<keyChunkShift:], ch[:])
	}
	return out
}

// newKeyView chunks a flat slice (the generic NewSnapshot path).
func newKeyView(keys []keyspace.Key) keyView {
	v := keyView{n: len(keys)}
	for lo := 0; lo < len(keys); lo += keyChunkLen {
		ch := new(keyChunk)
		copy(ch[:], keys[lo:])
		v.spine = append(v.spine, ch)
	}
	return v
}

// keyStore is the writer side and the incremental overlay's only copy
// of its identifiers: capture() hands out an immutable view for
// O(spine) cost, and the embedded keyView is the live mapping the
// writer and its own router read.
type keyStore struct {
	keyView
	owned []bool    // owned[j]: chunk j not shared with any snapshot
	spare *keyChunk // the last owned chunk pop dropped, for push to reuse
}

func newKeyStore(keys []keyspace.Key) *keyStore {
	ks := &keyStore{keyView: newKeyView(keys)}
	ks.owned = make([]bool, len(ks.spine))
	for j := range ks.owned {
		ks.owned[j] = true
	}
	return ks
}

// ensureOwned clones chunk j if a snapshot might still read it.
func (ks *keyStore) ensureOwned(j int) {
	if !ks.owned[j] {
		c := *ks.spine[j]
		ks.spine[j] = &c
		ks.owned[j] = true
	}
}

// set writes slot u's identifier.
func (ks *keyStore) set(u int, k keyspace.Key) {
	j := u >> keyChunkShift
	ks.ensureOwned(j)
	ks.spine[j][u&keyChunkMask] = k
}

// push appends identifier k for slot n.
func (ks *keyStore) push(k keyspace.Key) {
	if ks.n&keyChunkMask == 0 {
		if ks.spare == nil {
			ks.spare = new(keyChunk)
		}
		ks.spine, ks.owned, ks.spare = append(ks.spine, ks.spare), append(ks.owned, true), nil
	}
	j := ks.n >> keyChunkShift
	ks.ensureOwned(j)
	ks.spine[j][ks.n&keyChunkMask] = k
	ks.n++
}

// pop drops the last slot's identifier. The vacated tail entry is
// left in place — views carry their own length, so stale tail values
// past a view's n are never readable.
func (ks *keyStore) pop() {
	ks.n--
	if j := len(ks.spine) - 1; ks.n&keyChunkMask == 0 && j >= ks.n>>keyChunkShift {
		if ks.owned[j] {
			ks.spare = ks.spine[j]
		}
		ks.spine, ks.owned = ks.spine[:j], ks.owned[:j]
	}
}

// capture freezes the current contents into a view: one spine copy,
// then every chunk is marked shared so the next write clones it.
func (ks *keyStore) capture() keyView {
	v := keyView{spine: append([]*keyChunk(nil), ks.spine...), n: ks.n}
	for j := range ks.owned {
		ks.owned[j] = false
	}
	return v
}

// rankChunk holds a contiguous run of the rank index: keys[i] is the
// i-th identifier of the run in ascending order, slots[i] the slot
// holding it.
type rankChunk struct {
	keys  []keyspace.Key
	slots []int32
}

func (c *rankChunk) clone(capacity int) *rankChunk {
	d := &rankChunk{
		keys:  make([]keyspace.Key, len(c.keys), capacity),
		slots: make([]int32, len(c.slots), capacity),
	}
	copy(d.keys, c.keys)
	copy(d.slots, c.slots)
	return d
}

// rankView is a rank index: a frozen one shared into a Snapshot, or the
// live one a rankStore embeds. cum[j] is the number of rank entries
// before chunk j (len(chunks)+1 entries), and fence[j] is chunk j's
// largest identifier, its last key. A rank lookup searches cum and a key
// lookup searches the fence, both flat arrays of a few hundred entries,
// and then one chunk; the search returns a rankPos, and every read of
// that rank's key or slot, or of its neighbours', goes through the
// position instead of searching again. Invariants: every chunk is
// non-empty (an empty index has no chunks), and fence[j] equals
// chunks[j].keys[len(chunks[j].keys)-1] for every j.
type rankView struct {
	chunks []*rankChunk
	cum    []int32
	fence  []keyspace.Key
	n      int
}

// rankPos is a position in a rankView: entry off of chunk c. The
// position one past the last rank is (len(chunks), 0).
type rankPos struct{ c, off int }

// Len returns the number of rank entries.
func (v rankView) Len() int { return v.n }

// at locates global rank i. Rank n locates to (len(chunks), 0), one
// past the last chunk.
func (v rankView) at(i int) rankPos {
	lo, hi := 0, len(v.chunks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(v.cum[m+1]) > i {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return rankPos{lo, i - int(v.cum[lo])}
}

// seek locates the first rank whose key is >= x: a lower bound over the
// fence, then within one chunk. It returns (len(chunks), 0) when no key
// is >= x, NaN x included, as sort.Search with the same predicate does.
// This is the primitive the keyspace.Points search family is rebuilt
// from, bit-identical because both reduce to the same total order on
// keys.
func (v rankView) seek(x keyspace.Key) rankPos {
	lo, hi := 0, len(v.fence)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if v.fence[m] >= x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == len(v.fence) {
		return rankPos{lo, 0}
	}
	keys := v.chunks[lo].keys
	a, b := 0, len(keys)
	for a < b {
		m := int(uint(a+b) >> 1)
		if keys[m] >= x {
			b = m
		} else {
			a = m + 1
		}
	}
	return rankPos{lo, a}
}

// rank returns the global rank at p.
func (v rankView) rank(p rankPos) int { return int(v.cum[p.c]) + p.off }

// key returns the identifier at p.
func (v rankView) key(p rankPos) keyspace.Key { return v.chunks[p.c].keys[p.off] }

// slot returns the slot holding the identifier at p.
func (v rankView) slot(p rankPos) int32 { return v.chunks[p.c].slots[p.off] }

// next returns the position after p, wrapping from the last rank to
// rank 0.
func (v rankView) next(p rankPos) rankPos {
	if p.off++; p.off == len(v.chunks[p.c].keys) {
		p.off = 0
		if p.c++; p.c == len(v.chunks) {
			p.c = 0
		}
	}
	return p
}

// prev returns the position before p, wrapping from rank 0 to the last
// rank; the position one past the last rank steps back to the last.
func (v rankView) prev(p rankPos) rankPos {
	if p.off == 0 {
		if p.c == 0 {
			p.c = len(v.chunks)
		}
		p.c--
		p.off = len(v.chunks[p.c].keys)
	}
	p.off--
	return p
}

// Nearest mirrors keyspace.Points.Nearest exactly, including the
// lower-index tie-break, so routing termination decisions are
// bit-identical to the flat path.
func (v rankView) Nearest(t keyspace.Topology, x keyspace.Key) int {
	i, _, _ := v.nearest(t, x)
	return i
}

// nearest is Nearest that also returns the winner's slot and its
// distance to x, read at the position the one search found: -1 when
// the index is empty.
func (v rankView) nearest(t keyspace.Topology, x keyspace.Key) (i int, slot int32, d float64) {
	if v.n == 0 {
		return -1, -1, 0
	}
	s := v.seek(x)
	p := v.prev(s) // the predecessor, wrapping to the last rank
	if s.c == len(v.chunks) {
		s = rankPos{} // the successor wraps to rank 0
	}
	ds := t.Distance(v.key(s), x)
	dp := t.Distance(v.key(p), x)
	si, pi := v.rank(s), v.rank(p)
	if dp < ds || (dp == ds && pi < si) {
		return pi, v.slot(p), dp
	}
	return si, v.slot(s), ds
}

// nearestExcluding mirrors keyspace.Points.NearestExcluding exactly and
// also returns the winner's position: the rank closest to x other than
// self, lower rank on a tie; -1 with fewer than two entries. The
// incremental overlay's link draws resolve through it. Points probes
// the three ranks from x's successor upward and
// the three below it and keeps the least (distance, rank) pair, which
// does not depend on the probe order; here one cursor walks each way
// from the position of x's successor. (Points probes on past those six
// only while it has kept nothing, which with two or more entries means
// every distance to x is NaN or +Inf; no probe is kept here either.)
func (v rankView) nearestExcluding(t keyspace.Topology, x keyspace.Key, self int) (int, rankPos) {
	if v.n < 2 {
		return -1, rankPos{}
	}
	best, bestP, bestD := -1, rankPos{}, math.Inf(1)
	up := v.seek(x)
	if up.c == len(v.chunks) {
		up = rankPos{} // Successor wraps to rank 0
	}
	down := up
	for step := 0; step < 3; step++ {
		if i := v.rank(up); i != self {
			if d := t.Distance(v.key(up), x); d < bestD || (d == bestD && i < best) {
				best, bestP, bestD = i, up, d
			}
		}
		down = v.prev(down)
		if i := v.rank(down); i != self {
			if d := t.Distance(v.key(down), x); d < bestD || (d == bestD && i < best) {
				best, bestP, bestD = i, down, d
			}
		}
		up = v.next(up)
	}
	return best, bestP
}

// Has reports whether x is one of the indexed identifiers.
func (v rankView) Has(x keyspace.Key) bool {
	p := v.seek(x)
	return p.c < len(v.chunks) && v.key(p) == x
}

// Cell mirrors keyspace.Cell over the sorted identifiers: it hands
// keyspace.Cell rank i and its rank neighbours, all the points the cell
// of i depends on, so the cell arithmetic stays in one place.
func (v rankView) Cell(t keyspace.Topology, i int) keyspace.Interval {
	n := v.n
	if i < 0 || i >= n {
		return keyspace.Interval{}
	}
	p := v.at(i)
	var w [3]keyspace.Key
	m, self := 0, 0
	if i > 0 || t == keyspace.Ring && n > 1 {
		w[0], m, self = v.key(v.prev(p)), 1, 1
	}
	w[m] = v.key(p)
	m++
	if i+1 < n || t == keyspace.Ring && n > 1 {
		w[m] = v.key(v.next(p))
		m++
	}
	return keyspace.Cell(t, w[:m], self)
}

// posOf returns the position of slot u, whose identifier is k. The
// search lands on the first rank holding k; duplicate identifiers
// (which only the generic NewSnapshot path can index) are resolved by
// walking the equal run for the slot itself.
func (v rankView) posOf(k keyspace.Key, u int32) (rankPos, bool) {
	for p := v.seek(k); p.c < len(v.chunks); {
		ch := v.chunks[p.c]
		if ch.slots[p.off] == u {
			return p, true
		}
		if ch.keys[p.off] != k {
			break
		}
		if p.off++; p.off == len(ch.keys) {
			p = rankPos{p.c + 1, 0}
		}
	}
	return rankPos{}, false
}

// materializeKeys copies the sorted identifiers into a flat Points —
// the lazy compatibility path behind Snapshot.SortedKeys().
func (v rankView) materializeKeys() keyspace.Points {
	out := make(keyspace.Points, 0, v.n)
	for _, ch := range v.chunks {
		out = append(out, ch.keys...)
	}
	return out
}

// rankStore is the writer side of the rank index and the incremental
// overlay's only copy of it. The embedded rankView is the live index:
// the writer searches it in place, and capture() freezes a copy of its
// spine. Inserts and removes shift entries within a single chunk; the
// cum spine is rebuilt from the touched chunk onward (O(#chunks) int32
// writes per event), and the fence moves with the chunks.
type rankStore struct {
	rankView
	owned []bool // owned[j]: chunk j not shared with any snapshot
}

// newRankStore indexes a flat ascending identifier array, byKey[i]
// held by slot order[i], in owned chunks copied at their length: an
// insert into a full chunk, and the first write to a chunk after a
// capture, give it room by rankRoom.
func newRankStore(byKey keyspace.Points, order []int32) *rankStore {
	rs := &rankStore{rankView: newRankView(byKey, order)}
	rs.owned = make([]bool, len(rs.chunks))
	for j, c := range rs.chunks {
		rs.chunks[j] = c.clone(len(c.keys))
		rs.owned[j] = true
	}
	return rs
}

// rebuildCum recomputes the cumulative counts from chunk c onward and
// the fence entries of chunks c and c+1, the only chunks whose contents
// an insert or remove at chunk c changes; the callers shift the fence
// entries of later chunks along with the chunks themselves.
func (rs *rankStore) rebuildCum(c int) {
	if cap(rs.cum) < len(rs.chunks)+1 {
		cum := make([]int32, len(rs.chunks)+1, 2*(len(rs.chunks)+1))
		copy(cum, rs.cum)
		rs.cum = cum
	}
	rs.cum = rs.cum[:len(rs.chunks)+1]
	for j := c; j < len(rs.chunks); j++ {
		rs.cum[j+1] = rs.cum[j] + int32(len(rs.chunks[j].keys))
	}
	for j := c; j < min(c+2, len(rs.chunks)); j++ {
		keys := rs.chunks[j].keys
		rs.fence[j] = keys[len(keys)-1]
	}
}

// rankRoom returns the capacity a chunk of n entries is cloned or
// grown to: an eighth to spare, as the row stores keep, and never past
// the split threshold.
func rankRoom(n int) int { return min(n+n/8+1, rankChunkCap) }

func (rs *rankStore) ensureOwned(c int) *rankChunk {
	if !rs.owned[c] {
		rs.chunks[c] = rs.chunks[c].clone(rankRoom(len(rs.chunks[c].keys)))
		rs.owned[c] = true
	}
	return rs.chunks[c]
}

// insert places identifier k, held by slot, at position p (as seek or
// at returned it), shifting the ranks from p on up by one, and returns
// the position k now holds.
func (rs *rankStore) insert(p rankPos, k keyspace.Key, slot int32) rankPos {
	if len(rs.chunks) == 0 {
		c := &rankChunk{
			keys:  make([]keyspace.Key, 0, rankChunkCap),
			slots: make([]int32, 0, rankChunkCap),
		}
		rs.chunks = append(rs.chunks, c)
		rs.owned = append(rs.owned, true)
		rs.fence = append(rs.fence, k)
		p = rankPos{}
	} else if p.c == len(rs.chunks) {
		// Append past the end: goes into the last chunk.
		p.c = len(rs.chunks) - 1
		p.off = len(rs.chunks[p.c].keys)
	}
	lo := p.c // leftmost chunk whose cumulative count changes
	ch := rs.ensureOwned(p.c)
	if len(ch.keys) >= rankChunkCap {
		// Split the full chunk into two owned halves, then re-locate.
		c := p.c
		mid := len(ch.keys) / 2
		right := &rankChunk{
			keys:  make([]keyspace.Key, len(ch.keys)-mid, rankChunkCap),
			slots: make([]int32, len(ch.slots)-mid, rankChunkCap),
		}
		copy(right.keys, ch.keys[mid:])
		copy(right.slots, ch.slots[mid:])
		ch.keys = ch.keys[:mid]
		ch.slots = ch.slots[:mid]
		rs.chunks = slices.Insert(rs.chunks, c+1, right)
		rs.owned = slices.Insert(rs.owned, c+1, true)
		rs.fence = slices.Insert(rs.fence, c+1, 0)
		if p.off > mid {
			p, ch = rankPos{c + 1, p.off - mid}, right
		}
	}
	if n := len(ch.keys); n == cap(ch.keys) {
		ch.keys = append(make([]keyspace.Key, 0, rankRoom(n)), ch.keys...)
		ch.slots = append(make([]int32, 0, rankRoom(n)), ch.slots...)
	}
	off := p.off
	ch.keys = append(ch.keys, 0)
	copy(ch.keys[off+1:], ch.keys[off:])
	ch.keys[off] = k
	ch.slots = append(ch.slots, 0)
	copy(ch.slots[off+1:], ch.slots[off:])
	ch.slots[off] = slot
	rs.n++
	rs.rebuildCum(lo)
	return p
}

// remove deletes the entry at position p, shifting the ranks after it
// down by one, and returns the position of the rank that followed it
// (rank 0 when p held the last rank).
func (rs *rankStore) remove(p rankPos) rankPos {
	c, off := p.c, p.off
	ch := rs.ensureOwned(c)
	copy(ch.keys[off:], ch.keys[off+1:])
	ch.keys = ch.keys[:len(ch.keys)-1]
	copy(ch.slots[off:], ch.slots[off+1:])
	ch.slots = ch.slots[:len(ch.slots)-1]
	rs.n--
	if len(ch.keys) == 0 {
		rs.chunks = slices.Delete(rs.chunks, c, c+1)
		rs.owned = slices.Delete(rs.owned, c, c+1)
		rs.fence = slices.Delete(rs.fence, c, c+1)
	}
	rs.rebuildCum(c)
	// The next rank took p's place, or opens the next chunk when p was
	// its chunk's last entry (chunk c itself when that chunk is gone).
	if off > 0 && off == len(ch.keys) {
		c, off = c+1, 0
	}
	if c == len(rs.chunks) {
		return rankPos{}
	}
	return rankPos{c, off}
}

// setSlot records that the entry at position p is now held by slot (a
// Leave's last-slot rename).
func (rs *rankStore) setSlot(p rankPos, slot int32) {
	rs.ensureOwned(p.c).slots[p.off] = slot
}

// capture freezes the current index into a view: spine, cum and fence
// copies, all chunks marked shared.
func (rs *rankStore) capture() rankView {
	v := rankView{
		chunks: append([]*rankChunk(nil), rs.chunks...),
		cum:    append([]int32(nil), rs.cum...),
		fence:  append([]keyspace.Key(nil), rs.fence...),
		n:      rs.n,
	}
	for j := range rs.owned {
		rs.owned[j] = false
	}
	return v
}

// newRankView chunks a flat byKey/order pair directly (the generic
// NewSnapshot path, where no writer store exists). The chunks alias
// the flat arrays.
func newRankView(byKey keyspace.Points, order []int32) rankView {
	v := rankView{n: len(byKey)}
	for lo := 0; lo < len(byKey); lo += rankChunkFill {
		hi := min(lo+rankChunkFill, len(byKey))
		v.chunks = append(v.chunks, &rankChunk{keys: byKey[lo:hi:hi], slots: order[lo:hi:hi]})
		v.fence = append(v.fence, byKey[hi-1])
	}
	v.cum = make([]int32, len(v.chunks)+1)
	for j, ch := range v.chunks {
		v.cum[j+1] = v.cum[j] + int32(len(ch.keys))
	}
	return v
}

// Row blocks. A block holds the out-rows of adjBlockLen consecutive
// slots as a block-local CSR: its row bounds and the slice of its
// targets fill one cache line, apart from the targets themselves, so a
// reader finds a row with one line of bounds, as with a flat CSR's
// offsets array, and the bounds take as many bytes. Spans of
// adjSpanLen blocks hang off the spine. A capture copies the spine
// (1024 entries at N = 2^20, small enough to stay in cache for
// readers); the writer then clones a span, and a block in it, the
// first time it edits a row there.

// adjBlock holds rows: row i is tgt[off[i]:off[i+1]], and rows past
// the population are empty. 64 bytes, so the bounds take 4 bytes a row
// as in a flat CSR; uint16 bounds cap a block at 65535 targets.
type adjBlock struct {
	off [adjBlockLen + 1]uint16
	tgt []int32
}

// adjView is a slot→out-row mapping: a frozen one shared into a
// Snapshot, or the live one an adjStore embeds. Each span is an
// immutable-once-shared run of adjSpanLen blocks, held as a slice
// rather than an array pointer: indexing it then checks the length
// the spine already holds, where a pointer's nil check would load
// one more cache line per row read.
type adjView struct {
	spans [][]adjBlock
	n     int
}

// block returns the block holding u's row.
func (v adjView) block(u int) *adjBlock {
	return &v.spans[u>>adjSpanRowShift][(u>>adjBlockShift)&adjSpanMask]
}

// Row returns u's row, aliasing the block: only a store that is never
// captured (inLists) may write through it.
func (v adjView) Row(u int) []int32 {
	b, i := v.block(u), u&adjBlockMask
	return b.tgt[b.off[i]:b.off[i+1]]
}

// csr materialises the rows as one flat CSR, a block at a time.
func (v adjView) csr() *graph.CSR {
	offsets := make([]int32, v.n+1)
	var targets []int32
	for u := 0; u < v.n; u += adjBlockLen {
		b := v.block(u)
		for i := 1; i <= adjBlockLen && u+i <= v.n; i++ {
			offsets[u+i] = int32(len(targets) + int(b.off[i]))
		}
		targets = append(targets, b.tgt...)
	}
	return graph.NewCSR(offsets, targets)
}

// adjStore is the writer side of a row store; its rows need not be
// sorted. The out-rows, the incremental overlay's only adjacency, are
// ascending and edited in place, one entry at a time, through setRow.
// The embedded adjView is the live mapping the writer's Neighbors and
// router read; capture() freezes a copy of its spine.
type adjStore struct {
	adjView
	// spanShared[s] marks span s as possibly read by a snapshot, and
	// bit j of shared[s] marks block j of it.
	spanShared []bool
	shared     []uint64
	spare      []adjBlock // a span pop dropped that no snapshot reads, for push to reuse
}

// newAdjStore lays rows 0..n-1, as row(u) returns them, out in blocks,
// each sized once so that setRow fills it in place, with room for at
// least spare more targets.
func newAdjStore(n int, row func(u int) []int32, spare int) *adjStore {
	as := new(adjStore)
	for u := 0; u < n; u++ {
		as.push()
		if u&adjBlockMask == 0 {
			size := spare
			for v := u; v < min(u+adjBlockLen, n); v++ {
				size += len(row(v))
			}
			as.block(u).tgt = slices.Grow([]int32(nil), size) // with the allocation's spare room
		}
		as.setRow(u, row(u))
	}
	return as
}

// setRow replaces u's row with row in place, cloning u's span and then
// its block first if a snapshot may still read them. A block that lacks
// room is reallocated with an eighth to spare. row must not alias the
// store.
func (as *adjStore) setRow(u int, row []int32) {
	s, j := u>>adjSpanRowShift, (u>>adjBlockShift)&adjSpanMask
	if as.spanShared[s] {
		as.spans[s] = slices.Clone(as.spans[s])
		as.spanShared[s] = false
	}
	b := &as.spans[s][j]
	if as.shared[s]&(1<<j) != 0 {
		b.tgt = slices.Clone(b.tgt)
		as.shared[s] &^= 1 << j
	}
	i, blk := u&adjBlockMask, b.tgt
	lo, hi := int(b.off[i]), int(b.off[i+1])
	if d := len(row) - (hi - lo); d != 0 {
		end := len(blk)
		if end+d > math.MaxUint16 {
			panic("overlaynet: a row block would hold more than 65535 targets")
		}
		if need := end + d; need > cap(blk) {
			blk = append(slices.Grow([]int32(nil), need+need/8), blk...)
		}
		blk = blk[:end+d]
		copy(blk[hi+d:], blk[hi:end])
		for k := i + 1; k <= adjBlockLen; k++ {
			b.off[k] = uint16(int(b.off[k]) + d)
		}
		b.tgt = blk
	}
	copy(blk[lo:], row)
}

// push appends an empty row for slot n.
func (as *adjStore) push() {
	if as.n&(1<<adjSpanRowShift-1) == 0 {
		if as.spare == nil {
			as.spare = make([]adjBlock, adjSpanLen)
		}
		as.spans, as.spare = append(as.spans, as.spare), nil
		as.spanShared = append(as.spanShared, false)
		as.shared = append(as.shared, 0)
	}
	as.n++
}

// pop drops the last slot's row, and its span once that is empty.
func (as *adjStore) pop() {
	as.setRow(as.n-1, nil)
	if as.n--; as.n&(1<<adjSpanRowShift-1) == 0 {
		s := len(as.spans) - 1
		if !as.spanShared[s] && as.shared[s] == 0 {
			as.spare = as.spans[s]
		}
		as.spans, as.spanShared, as.shared = as.spans[:s], as.spanShared[:s], as.shared[:s]
	}
}

// capture freezes the current rows into a view: every span and block
// is marked shared, so the next edit clones what it touches, and the
// spine is copied.
func (as *adjStore) capture() adjView {
	for s := range as.shared {
		as.spanShared[s], as.shared[s] = true, ^uint64(0)
	}
	return adjView{spans: slices.Clone(as.spans), n: as.n}
}

// inLists holds the writer's long-range in-lists (who links each slot)
// as the rows of an adjStore that is never captured, so setRow never
// clones. Row v is v's in-list in event order, then -1s as room (-1
// never names a slot): a row is as long as its list rounded up to a
// multiple of inRowRound when it is laid out or grows (roomFor), and
// keeps its length when the list shrinks.
type inLists struct {
	adjStore
	buf []int32 // scratch row: setRow must not read the store it edits
}

// inRowRound is the multiple every in-list row's length is: a row
// holds at most inRowRound-1 entries of room when it is laid out.
const inRowRound = 4

// roomFor returns the row length of a list of c entries.
func roomFor(c int) int { return (c + inRowRound - 1) / inRowRound * inRowRound }

// newInLists builds the in-lists of n slots, where u links every slot in
// out(u) long-range, in place, in slot order, by counting sort.
func newInLists(n int, out func(u int) []int32) *inLists {
	count := make([]int32, n)
	var pad []int32 // -1s: a prefix of it is each row's initial content
	for u := 0; u < n; u++ {
		for _, v := range out(u) {
			if count[v]++; int(count[v]) > len(pad) {
				pad = slices.Repeat([]int32{-1}, roomFor(int(count[v])))
			}
		}
	}
	// Each block has room for one row to grow without reallocating.
	il := &inLists{adjStore: *newAdjStore(n, func(u int) []int32 { return pad[:roomFor(int(count[u]))] }, inRowRound)}
	clear(count) // now each row's fill
	for u := 0; u < n; u++ {
		for _, v := range out(u) {
			il.Row(int(v))[count[v]] = int32(u)
			count[v]++
		}
	}
	return il
}

// list returns v's in-list, the row without its -1 tail. The slice
// aliases the block.
func (il *inLists) list(v int32) []int32 {
	row := il.Row(int(v))
	for len(row) > 0 && row[len(row)-1] < 0 {
		row = row[:len(row)-1]
	}
	return row
}

// add appends u to v's in-list; a row with no room grows by inRowRound
// entries (setRow reallocates the block if need be).
func (il *inLists) add(v, u int32) {
	row := il.Row(int(v))
	if l := len(il.list(v)); l < len(row) {
		row[l] = u
		return
	}
	il.buf = append(append(il.buf[:0], row...), u)
	for c := roomFor(len(il.buf)); len(il.buf) < c; {
		il.buf = append(il.buf, -1)
	}
	il.setRow(int(v), il.buf)
}

// drop swap-deletes u from v's in-list, leaving -1 where the last was.
func (il *inLists) drop(v, u int32) {
	in := il.list(v)
	if i := slices.Index(in, u); i >= 0 {
		in[i], in[len(in)-1] = in[len(in)-1], -1
	}
}

// rename rewrites from as to in v's in-list.
func (il *inLists) rename(v, from, to int32) {
	in := il.list(v)
	if i := slices.Index(in, from); i >= 0 {
		in[i] = to
	}
}

// move gives to the row of from, room included.
func (il *inLists) move(to, from int32) {
	il.buf = append(il.buf[:0], il.Row(int(from))...)
	il.setRow(int(to), il.buf)
}
