package overlaynet

import (
	"math"
	"slices"
	"testing"

	"smallworld/keyspace"
	"smallworld/xrand"
)

// KeyAt returns the identifier at rank i.
func (v rankView) KeyAt(i int) keyspace.Key { return v.key(v.at(i)) }

// SlotAt returns the slot holding rank i.
func (v rankView) SlotAt(i int) int32 { return v.slot(v.at(i)) }

// succIdx returns the first rank whose key is >= x (n when none).
func (v rankView) succIdx(x keyspace.Key) int { return v.rank(v.seek(x)) }

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

// NearestExcluding is nearestExcluding's rank alone, the form
// keyspace.Points.NearestExcluding returns.
func (v rankView) NearestExcluding(t keyspace.Topology, x keyspace.Key, self int) int {
	i, _ := v.nearestExcluding(t, x, self)
	return i
}

// rankOf returns the rank of slot u, whose identifier is k, or -1 when
// u is not indexed.
func (v rankView) rankOf(k keyspace.Key, u int32) int {
	p, ok := v.posOf(k, u)
	if !ok {
		return -1
	}
	return v.rank(p)
}

// materializeSlots copies the rank→slot mapping into a flat order
// slice.
func (v rankView) materializeSlots() []int32 {
	out := make([]int32, 0, v.n)
	for _, ch := range v.chunks {
		out = append(out, ch.slots...)
	}
	return out
}

// rankModel drives a rankStore, the incremental overlay's rank index,
// against a sorted-slice reference: the identifiers in ascending order
// and the slot holding each. Writes go through the store the way Join
// and Leave make them (insert at the position seek returns, remove and
// setSlot at the position posOf returns), and every read a writer or a
// snapshot makes is compared with keyspace.Points and keyspace.Cell on
// the reference.
type rankModel struct {
	t     *testing.T
	rs    *rankStore
	keys  keyspace.Points
	slots []int32
	fresh int32 // next unused slot number
	caps  []rankCapture
}

// rankCapture is a captured view with the reference it must keep
// reading, whatever the store does afterwards.
type rankCapture struct {
	v     rankView
	keys  keyspace.Points
	slots []int32
}

func newRankModel(t *testing.T) *rankModel {
	return &rankModel{t: t, rs: newRankStore(nil, nil)}
}

// insert indexes k under a fresh slot, unless k is indexed already:
// the overlay never holds an identifier twice.
func (m *rankModel) insert(k keyspace.Key) {
	i, found := slices.BinarySearch(m.keys, k)
	if found {
		return
	}
	p := m.rs.insert(m.rs.seek(k), k, m.fresh)
	if got := m.rs.rank(p); got != i || m.rs.key(p) != k || m.rs.slot(p) != m.fresh {
		m.t.Fatalf("insert(%v) returned rank %d holding %v in slot %d, want rank %d", k, got, m.rs.key(p), m.rs.slot(p), i)
	}
	m.keys = slices.Insert(m.keys, i, k)
	m.slots = slices.Insert(m.slots, i, m.fresh)
	m.fresh++
}

// pos finds rank i by its identifier and slot, as Leave does.
func (m *rankModel) pos(i int) rankPos {
	p, ok := m.rs.posOf(m.keys[i], m.slots[i])
	if !ok || m.rs.rank(p) != i {
		m.t.Fatalf("posOf(%v, %d) = %v, %v, want rank %d", m.keys[i], m.slots[i], p, ok, i)
	}
	return p
}

// remove deletes rank i and checks that the returned position holds
// the rank that followed it, wrapping to rank 0.
func (m *rankModel) remove(i int) {
	next := m.rs.remove(m.pos(i))
	m.keys = slices.Delete(m.keys, i, i+1)
	m.slots = slices.Delete(m.slots, i, i+1)
	if n := len(m.keys); n > 0 {
		if got := m.rs.rank(next); got != i%n {
			m.t.Fatalf("remove(%d) returned rank %d, want %d", i, got, i%n)
		}
	}
}

// setSlot moves rank i to a fresh slot, as a Leave's rename does.
func (m *rankModel) setSlot(i int) {
	m.rs.setSlot(m.pos(i), m.fresh)
	m.slots[i] = m.fresh
	m.fresh++
}

// capture freezes the store, keeping the last four captures.
func (m *rankModel) capture() {
	m.caps = append(m.caps, rankCapture{m.rs.capture(), slices.Clone(m.keys), slices.Clone(m.slots)})
	if len(m.caps) > 4 {
		m.caps = m.caps[1:]
	}
}

// check compares the live index and every retained capture with their
// references.
func (m *rankModel) check() {
	t := m.t
	t.Helper()
	v, n := m.rs.rankView, len(m.keys)
	if v.Len() != n {
		t.Fatalf("index holds %d entries, reference %d", v.Len(), n)
	}
	checkRankFence(t, v)
	for i := 0; i < n; i++ {
		if v.KeyAt(i) != m.keys[i] || v.SlotAt(i) != m.slots[i] {
			t.Fatalf("rank %d holds %v in slot %d, want %v in slot %d", i, v.KeyAt(i), v.SlotAt(i), m.keys[i], m.slots[i])
		}
		if got := v.rankOf(m.keys[i], m.slots[i]); got != i {
			t.Fatalf("rankOf(%v, %d) = %d, want %d", m.keys[i], m.slots[i], got, i)
		}
		if got := v.rankOf(m.keys[i], m.fresh); got != -1 {
			t.Fatalf("rankOf(%v, unused slot) = %d, want -1", m.keys[i], got)
		}
		p := v.at(i)
		if got := v.rank(v.next(p)); got != (i+1)%n {
			t.Fatalf("next of rank %d is rank %d", i, got)
		}
		if got := v.rank(v.prev(p)); got != (i+n-1)%n {
			t.Fatalf("prev of rank %d is rank %d", i, got)
		}
		// Every rank's cell is keyspace.Cell's, so the view's cells tile
		// [0,1) as keyspace.Cell's do (TestCellTiling, FuzzCells).
		for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
			if got, want := v.Cell(topo, i), keyspace.Cell(topo, m.keys, i); got != want {
				t.Fatalf("Cell(%v, %d) = %v, want %v", topo, i, got, want)
			}
		}
	}
	// Probe around every rank of small indexes, and around a sample and
	// every chunk's first and last rank of large ones.
	var ranks []int
	if n > 0 {
		ranks = append(ranks, 0, n-1)
	}
	for j := range v.chunks {
		ranks = append(ranks, int(v.cum[j]), int(v.cum[j+1])-1)
	}
	for i := 0; i < n; i += n/32 + 1 {
		ranks = append(ranks, i)
	}
	for _, i := range ranks {
		lo, hi := m.keys[i], m.keys[(i+1)%n]
		for _, x := range []keyspace.Key{
			lo,
			keyspace.Key(math.Nextafter(float64(lo), 1)),
			keyspace.Key(math.Nextafter(float64(lo), -1)),
			keyspace.Key((float64(lo) + float64(hi)) / 2),
			keyspace.MidpointRing(lo, hi),
		} {
			m.probe(x)
		}
	}
	for _, x := range []keyspace.Key{0, 0.5, keyspace.Key(math.Nextafter(1, 0))} {
		m.probe(x)
	}
	for _, c := range m.caps {
		checkRankFence(t, c.v)
		if c.v.Len() != len(c.keys) || !slices.Equal(c.v.materializeKeys(), c.keys) || !slices.Equal(c.v.materializeSlots(), c.slots) {
			t.Fatalf("a captured view of %d entries changed after later writes", len(c.keys))
		}
	}
}

// probe compares the key searches at x: Successor, Predecessor, Has,
// Nearest with its slot and distance, and NearestExcluding with the
// excluded rank at x's successor, on either side of it, and absent.
func (m *rankModel) probe(x keyspace.Key) {
	t := m.t
	t.Helper()
	v, n := m.rs.rankView, len(m.keys)
	if got, want := v.Successor(x), m.keys.Successor(x); got != want {
		t.Fatalf("Successor(%v) = %d, want %d", x, got, want)
	}
	if got, want := v.Predecessor(x), m.keys.Predecessor(x); got != want {
		t.Fatalf("Predecessor(%v) = %d, want %d", x, got, want)
	}
	if _, want := slices.BinarySearch(m.keys, x); v.Has(x) != want {
		t.Fatalf("Has(%v) = %v, want %v", x, v.Has(x), want)
	}
	for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
		want := m.keys.Nearest(topo, x)
		if got := v.Nearest(topo, x); got != want {
			t.Fatalf("Nearest(%v, %v) = %d, want %d", topo, x, got, want)
		}
		if i, slot, d := v.nearest(topo, x); i != want ||
			want >= 0 && (slot != m.slots[want] || math.Float64bits(d) != math.Float64bits(topo.Distance(m.keys[want], x))) {
			t.Fatalf("nearest(%v, %v) = rank %d slot %d at %v, want rank %d", topo, x, i, slot, d, want)
		}
		if n == 0 {
			continue
		}
		s := m.keys.Successor(x)
		for _, self := range []int{s, (s + 1) % n, (s + n - 1) % n, -1} {
			want := m.keys.NearestExcluding(topo, x, self)
			if got := v.NearestExcluding(topo, x, self); got != want {
				t.Fatalf("NearestExcluding(%v, %v, %d) = %d, want %d", topo, x, self, got, want)
			}
			if i, p := v.nearestExcluding(topo, x, self); i >= 0 && v.rank(p) != i {
				t.Fatalf("nearestExcluding(%v, %v, %d) returned rank %d at the position of rank %d", topo, x, self, i, v.rank(p))
			}
		}
	}
}

// run decodes ops into index operations, checking the index after
// each. Keys are 16-bit fractions; bulk operations insert or remove up
// to 766 keys at once, enough to split chunks (at 512 entries) and to
// empty the first and the last.
func (m *rankModel) run(ops []byte) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	key := func() keyspace.Key { return keyspace.Key(float64(next()<<8|next()) / 65536) }
	for len(ops) > 0 {
		n := len(m.keys)
		switch next() % 8 {
		case 0:
			m.insert(key())
		case 1: // a run of keys: ascending, descending or scattered
			start, count, mode := next()<<8|next(), 1+3*next(), next()%3
			for j := 0; j < count; j++ {
				u := start + j
				switch mode {
				case 1:
					u = start - j
				case 2:
					u = start + j*40503
				}
				m.insert(keyspace.Key(float64(u&0xffff) / 65536))
			}
		case 2:
			if n > 0 {
				m.remove(next() * 257 % n)
			}
		case 3: // a run of consecutive ranks
			if n > 0 {
				i := (next()<<8 | next()) % n
				for count := 1 + 3*next(); count > 0 && i < len(m.keys); count-- {
					m.remove(i)
				}
			}
		case 4:
			if n > 0 {
				m.setSlot(next() * 257 % n)
			}
		case 5: // the first or the last chunk, whole
			if c := len(m.rs.chunks); c > 0 {
				first, size := 0, len(m.rs.chunks[0].keys)
				if next()%2 == 1 {
					size = len(m.rs.chunks[c-1].keys)
					first = n - size
				}
				for ; size > 0; size-- {
					m.remove(first)
				}
			}
		case 6:
			m.capture()
		case 7: // any float64, NaN and infinities included
			var bits uint64
			for j := 0; j < 8; j++ {
				bits = bits<<8 | uint64(next())
			}
			m.probe(keyspace.Key(math.Float64frombits(bits)))
		}
		m.check()
	}
}

// FuzzRankIndex drives the rank index from arbitrary operation bytes
// against the sorted-slice reference (see rankModel.run). Seed corpus
// in testdata/fuzz/FuzzRankIndex.
func FuzzRankIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		newRankModel(t).run(ops)
	})
}

// TestRankIndexModel runs seeded random operation sequences against
// the reference, and checks that they split chunks, empty the index
// and pass through one and two entries.
func TestRankIndexModel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		ops := make([]byte, 600)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		newRankModel(t).run(ops)
	}
	m := newRankModel(t)
	for _, k := range []keyspace.Key{0.5, 0.25} {
		m.insert(k)
		m.check()
	}
	m.capture()
	for k := 0; k < 3*rankChunkCap; k++ {
		m.insert(keyspace.Key(float64(k*7919%65536) / 65536))
	}
	m.check()
	if len(m.rs.chunks) < 3 {
		t.Fatalf("%d inserts left %d chunks, want splits", len(m.keys), len(m.rs.chunks))
	}
	for len(m.keys) > 0 {
		m.remove(len(m.keys) / 3)
		if len(m.keys) < 4 {
			m.capture()
			m.check()
		}
	}
	m.check()
}
