package overlaynet

import (
	"math"
	"slices"
	"sort"

	"smallworld/graph"
	"smallworld/keyspace"
)

// This file implements the structural-sharing backing stores behind
// Snapshot: persistent chunked arrays with copy-on-write chunks.
//
// The writer (the incremental overlay) keeps its rank index and its
// out-rows only here, and a mirror of its identifiers, in chunks
// behind a spine of pointers, and reads them in place. CaptureSnapshot
// copies only the spine (O(N/chunk) pointers) and marks every chunk
// shared; the writer then clones a chunk the first time it touches it
// after a capture (copy-on-write), so an epoch with Δ membership
// events costs O(Δ·chunk + N/chunk) instead of the O(N+M) flat copies
// a capture of flat arrays would need. Snapshots hold immutable views:
// a frozen spine that no writer ever mutates through.
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
//     and a small cumulative-count spine locates a rank in
//     O(log #chunks). An insert shifts entries within ONE chunk. The
//     store embeds the rankView it would hand out, so the writer's
//     searches and the snapshots' searches are the same code.
//   - adjStore:  slot-indexed out-rows (Snapshot.adj), in blocks of a
//     fixed number of slots. Rows vary in length (Log2Degree gives
//     late joiners longer ones), so a block is a block-local CSR and a
//     row edit shifts targets within ONE block. Like rankStore, the
//     key and row stores embed the view they hand out.

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
// compatibility path behind Snapshot.Keys(), done at most once per
// snapshot (cached), never on the routing hot path.
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

// keyStore is the writer side: the incremental overlay mirrors every
// mutation of its flat keys slice into the store, and capture() hands
// out an immutable view for O(spine) cost. The embedded keyView is the
// live mapping the overlay's own router reads.
type keyStore struct {
	keyView
	owned []bool // owned[j]: chunk j not shared with any snapshot
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

// set mirrors keys[u] = k.
func (ks *keyStore) set(u int, k keyspace.Key) {
	j := u >> keyChunkShift
	ks.ensureOwned(j)
	ks.spine[j][u&keyChunkMask] = k
}

// push mirrors keys = append(keys, k).
func (ks *keyStore) push(k keyspace.Key) {
	if ks.n&keyChunkMask == 0 {
		ks.spine = append(ks.spine, new(keyChunk))
		ks.owned = append(ks.owned, true)
	}
	j := ks.n >> keyChunkShift
	ks.ensureOwned(j)
	ks.spine[j][ks.n&keyChunkMask] = k
	ks.n++
}

// pop mirrors keys = keys[:len(keys)-1]. The vacated tail entry is
// left in place — views carry their own length, so stale tail values
// past a view's n are never readable.
func (ks *keyStore) pop() {
	ks.n--
	if ks.n&keyChunkMask == 0 && len(ks.spine) > ks.n>>keyChunkShift {
		ks.spine = ks.spine[:len(ks.spine)-1]
		ks.owned = ks.owned[:len(ks.owned)-1]
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

func (c *rankChunk) clone() *rankChunk {
	d := &rankChunk{
		keys:  make([]keyspace.Key, len(c.keys), rankChunkCap),
		slots: make([]int32, len(c.slots), rankChunkCap),
	}
	copy(d.keys, c.keys)
	copy(d.slots, c.slots)
	return d
}

// rankView is a rank index: a frozen one shared into a Snapshot, or the
// live one a rankStore embeds. cum[j] is the number of rank entries
// before chunk j (len(chunks)+1 entries), so rank→chunk location is a
// binary search over a few dozen int32s. Invariant: every chunk is
// non-empty (an empty index has no chunks).
type rankView struct {
	chunks []*rankChunk
	cum    []int32
	n      int
}

// Len returns the number of rank entries.
func (v rankView) Len() int { return v.n }

// chunkOf locates global rank i: the chunk index and in-chunk offset.
// Rank n locates to (len(chunks), 0), one past the last chunk.
func (v rankView) chunkOf(i int) (int, int) {
	c := sort.Search(len(v.chunks), func(j int) bool { return int(v.cum[j+1]) > i })
	return c, i - int(v.cum[c])
}

// KeyAt returns the identifier at rank i.
func (v rankView) KeyAt(i int) keyspace.Key {
	c, off := v.chunkOf(i)
	return v.chunks[c].keys[off]
}

// SlotAt returns the slot holding rank i.
func (v rankView) SlotAt(i int) int32 {
	c, off := v.chunkOf(i)
	return v.chunks[c].slots[off]
}

// succIdx returns the first rank whose key is >= x (n when none) —
// sort.Search over the chunk maxima, then within one chunk. This is
// the primitive the keyspace.Points search family is rebuilt from,
// bit-identical because both reduce to the same total order on keys.
func (v rankView) succIdx(x keyspace.Key) int {
	c := sort.Search(len(v.chunks), func(j int) bool {
		ch := v.chunks[j]
		return ch.keys[len(ch.keys)-1] >= x
	})
	if c == len(v.chunks) {
		return v.n
	}
	ch := v.chunks[c]
	off := sort.Search(len(ch.keys), func(i int) bool { return ch.keys[i] >= x })
	return int(v.cum[c]) + off
}

// Successor mirrors keyspace.Points.Successor: first rank with key
// >= x, wrapping to 0 past the top.
func (v rankView) Successor(x keyspace.Key) int {
	i := v.succIdx(x)
	if i == v.n {
		return 0
	}
	return i
}

// Predecessor mirrors keyspace.Points.Predecessor: last rank with key
// < x, wrapping to n-1 below the bottom.
func (v rankView) Predecessor(x keyspace.Key) int {
	i := v.succIdx(x)
	if i == 0 {
		return v.n - 1
	}
	return i - 1
}

// Nearest mirrors keyspace.Points.Nearest exactly, including the
// lower-index tie-break, so routing termination decisions are
// bit-identical to the flat path.
func (v rankView) Nearest(t keyspace.Topology, x keyspace.Key) int {
	if v.n == 0 {
		return -1
	}
	i := v.succIdx(x)
	succ := i
	if succ == v.n {
		succ = 0
	}
	pred := i - 1
	if i == 0 {
		pred = v.n - 1
	}
	ds := t.Distance(v.KeyAt(succ), x)
	dp := t.Distance(v.KeyAt(pred), x)
	if dp < ds || (dp == ds && pred < succ) {
		return pred
	}
	return succ
}

// NearestExcluding mirrors keyspace.Points.NearestExcluding exactly:
// the rank closest to x other than self, lower rank on a tie, probing
// outward from x's successor the same ranks in the same order; -1 with
// fewer than two entries. The incremental overlay's link draws resolve
// through it.
func (v rankView) NearestExcluding(t keyspace.Topology, x keyspace.Key, self int) int {
	n := v.n
	if n < 2 {
		return -1
	}
	best, bestD := -1, math.Inf(1)
	start := v.Successor(x)
	for off := 0; off < n; off++ {
		for _, i := range [2]int{(start + off) % n, ((start-off-1)%n + n) % n} {
			if i == self {
				continue
			}
			if d := t.Distance(v.KeyAt(i), x); d < bestD || (d == bestD && i < best) {
				best, bestD = i, d
			}
		}
		if best >= 0 && off >= 2 {
			break
		}
	}
	return best
}

// Has reports whether x is one of the indexed identifiers.
func (v rankView) Has(x keyspace.Key) bool {
	i := v.succIdx(x)
	return i < v.n && v.KeyAt(i) == x
}

// Cell mirrors keyspace.Cell over the sorted identifiers: it hands
// keyspace.Cell rank i and its rank neighbours, all the points the cell
// of i depends on, so the cell arithmetic stays in one place.
func (v rankView) Cell(t keyspace.Topology, i int) keyspace.Interval {
	n := v.n
	if i < 0 || i >= n {
		return keyspace.Interval{}
	}
	if t == keyspace.Ring && n > 1 {
		w := keyspace.Points{v.KeyAt((i + n - 1) % n), v.KeyAt(i), v.KeyAt((i + 1) % n)}
		return keyspace.Cell(t, w, 1)
	}
	lo, hi := max(i-1, 0), min(i+2, n)
	var w [3]keyspace.Key
	for j := lo; j < hi; j++ {
		w[j-lo] = v.KeyAt(j)
	}
	return keyspace.Cell(t, w[:hi-lo], i-lo)
}

// rankOf returns the rank of slot u, whose identifier is k, or -1 when
// u is not indexed. Binary search lands on the first rank holding k;
// duplicate identifiers (which only the generic NewSnapshot path can
// index) are resolved by scanning the equal run for the slot itself.
func (v rankView) rankOf(k keyspace.Key, u int32) int {
	for i := v.succIdx(k); i < v.n; i++ {
		if v.SlotAt(i) == u {
			return i
		}
		if v.KeyAt(i) != k {
			break
		}
	}
	return -1
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

// materializeSlots copies the rank→slot mapping into a flat order
// slice (test/reference use).
func (v rankView) materializeSlots() []int32 {
	out := make([]int32, 0, v.n)
	for _, ch := range v.chunks {
		out = append(out, ch.slots...)
	}
	return out
}

// rankStore is the writer side of the rank index and the incremental
// overlay's only copy of it. The embedded rankView is the live index:
// the writer searches it in place, and capture() freezes a copy of its
// spine. Inserts and removes shift entries within a single chunk; the
// cum spine is rebuilt from the touched chunk onward (O(#chunks) int32
// writes per event).
type rankStore struct {
	rankView
	owned []bool // owned[j]: chunk j not shared with any snapshot
}

// newRankStore indexes a flat ascending identifier array, byKey[i]
// held by slot order[i], in owned chunks with room to grow.
func newRankStore(byKey keyspace.Points, order []int32) *rankStore {
	rs := &rankStore{rankView: newRankView(byKey, order)}
	rs.owned = make([]bool, len(rs.chunks))
	for j, c := range rs.chunks {
		rs.chunks[j] = c.clone()
		rs.owned[j] = true
	}
	return rs
}

// rebuildCum recomputes the cumulative counts from chunk c onward.
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
}

func (rs *rankStore) ensureOwned(c int) *rankChunk {
	if !rs.owned[c] {
		rs.chunks[c] = rs.chunks[c].clone()
		rs.owned[c] = true
	}
	return rs.chunks[c]
}

// insert places identifier k, held by slot, at rank i, shifting ranks
// i.. up by one.
func (rs *rankStore) insert(i int, k keyspace.Key, slot int32) {
	if len(rs.chunks) == 0 {
		c := &rankChunk{
			keys:  make([]keyspace.Key, 0, rankChunkCap),
			slots: make([]int32, 0, rankChunkCap),
		}
		rs.chunks = append(rs.chunks, c)
		rs.owned = append(rs.owned, true)
		rs.rebuildCum(0)
	}
	c, off := rs.chunkOf(i)
	if c == len(rs.chunks) {
		// Append past the end: goes into the last chunk.
		c = len(rs.chunks) - 1
		off = len(rs.chunks[c].keys)
	}
	lo := c // leftmost chunk whose cumulative count changes
	ch := rs.ensureOwned(c)
	if len(ch.keys) >= rankChunkCap {
		// Split the full chunk into two owned halves, then re-locate.
		mid := len(ch.keys) / 2
		right := &rankChunk{
			keys:  make([]keyspace.Key, len(ch.keys)-mid, rankChunkCap),
			slots: make([]int32, len(ch.slots)-mid, rankChunkCap),
		}
		copy(right.keys, ch.keys[mid:])
		copy(right.slots, ch.slots[mid:])
		ch.keys = ch.keys[:mid]
		ch.slots = ch.slots[:mid]
		rs.chunks = append(rs.chunks, nil)
		copy(rs.chunks[c+2:], rs.chunks[c+1:])
		rs.chunks[c+1] = right
		rs.owned = append(rs.owned, false)
		copy(rs.owned[c+2:], rs.owned[c+1:])
		rs.owned[c+1] = true
		if off > mid {
			c, off = c+1, off-mid
			ch = right
		}
	}
	ch.keys = append(ch.keys, 0)
	copy(ch.keys[off+1:], ch.keys[off:])
	ch.keys[off] = k
	ch.slots = append(ch.slots, 0)
	copy(ch.slots[off+1:], ch.slots[off:])
	ch.slots[off] = slot
	rs.n++
	rs.rebuildCum(lo)
}

// remove deletes rank i, shifting ranks i+1.. down by one.
func (rs *rankStore) remove(i int) {
	c, off := rs.chunkOf(i)
	ch := rs.ensureOwned(c)
	copy(ch.keys[off:], ch.keys[off+1:])
	ch.keys = ch.keys[:len(ch.keys)-1]
	copy(ch.slots[off:], ch.slots[off+1:])
	ch.slots = ch.slots[:len(ch.slots)-1]
	rs.n--
	if len(ch.keys) == 0 {
		copy(rs.chunks[c:], rs.chunks[c+1:])
		rs.chunks = rs.chunks[:len(rs.chunks)-1]
		copy(rs.owned[c:], rs.owned[c+1:])
		rs.owned = rs.owned[:len(rs.owned)-1]
	}
	rs.rebuildCum(c)
}

// setSlot records that rank i is now held by slot (a Leave's last-slot
// rename).
func (rs *rankStore) setSlot(i int, slot int32) {
	c, off := rs.chunkOf(i)
	rs.ensureOwned(c).slots[off] = slot
}

// capture freezes the current index into a view: spine + cum copies,
// all chunks marked shared.
func (rs *rankStore) capture() rankView {
	v := rankView{
		chunks: append([]*rankChunk(nil), rs.chunks...),
		cum:    append([]int32(nil), rs.cum...),
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
		hi := lo + rankChunkFill
		if hi > len(byKey) {
			hi = len(byKey)
		}
		c := &rankChunk{keys: byKey[lo:hi:hi], slots: order[lo:hi:hi]}
		v.chunks = append(v.chunks, c)
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

// Row returns u's sorted out-row. The slice aliases the block and must
// not be modified.
func (v adjView) Row(u int) []int32 {
	b, i := v.block(u), u&adjBlockMask
	return b.tgt[b.off[i]:b.off[i+1]]
}

// blockStarts numbers the edges the way a flat CSR of the same rows
// would: entry b counts the edges in blocks before b, and the last
// entry counts them all. rowStart(starts, u)+j is then the number of
// edge j of Row(u), as in graph.CSR.RowStart.
func (v adjView) blockStarts() []int32 {
	starts := make([]int32, (v.n+adjBlockMask)>>adjBlockShift+1)
	for b := 1; b < len(starts); b++ {
		starts[b] = starts[b-1] + int32(v.block((b - 1) << adjBlockShift).off[adjBlockLen])
	}
	return starts
}

func (v adjView) rowStart(starts []int32, u int) int {
	return int(starts[u>>adjBlockShift]) + int(v.block(u).off[u&adjBlockMask])
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

// adjStore is the writer side of the adjacency and the incremental
// overlay's only copy of it. The embedded adjView is the live mapping
// the writer's Neighbors and router read; capture() freezes a copy of
// its spine.
type adjStore struct {
	adjView
	// spanShared[s] marks span s as possibly read by a snapshot, and
	// bit j of shared[s] marks block j of it.
	spanShared []bool
	shared     []uint64
}

// newAdjStore lays rows 0..n-1, as row(u) returns them, out in blocks,
// each sized once so that setRow fills it in place.
func newAdjStore(n int, row func(u int) []int32) *adjStore {
	as := new(adjStore)
	for u := 0; u < n; u++ {
		as.push()
		if u&adjBlockMask == 0 {
			size := 0
			for v := u; v < min(u+adjBlockLen, n); v++ {
				size += len(row(v))
			}
			as.block(u).tgt = make([]int32, 0, size)
		}
		as.setRow(u, row(u))
	}
	return as
}

// setRow replaces u's out-row with row in place, cloning u's span and
// then its block first if a snapshot may still read them.
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
		blk = slices.Grow(blk, max(d, 0))[:end+d]
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
		as.spans = append(as.spans, make([]adjBlock, adjSpanLen))
		as.spanShared = append(as.spanShared, false)
		as.shared = append(as.shared, 0)
	}
	as.n++
}

// pop drops the last slot's row, and its span once that is empty.
func (as *adjStore) pop() {
	as.setRow(as.n-1, nil)
	if as.n--; as.n&(1<<adjSpanRowShift-1) == 0 {
		as.spans = as.spans[:len(as.spans)-1]
		as.spanShared = as.spanShared[:len(as.spanShared)-1]
		as.shared = as.shared[:len(as.shared)-1]
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
