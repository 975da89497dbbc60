package store

import (
	"slices"
	"testing"

	"smallworld/keyspace"
	"smallworld/xrand"
)

// tableModel drives a recTable beside its reference: the stored keys as
// a sorted slice and, per key, the id of the record inserted with it.
type tableModel struct {
	t      testing.TB
	tab    recTable
	keys   keyspace.Points
	ids    map[keyspace.Key]uint64
	nextID uint64
}

func newTableModel(t testing.TB) *tableModel {
	return &tableModel{t: t, ids: make(map[keyspace.Key]uint64)}
}

// insert stores k unless present; either way search must agree with the
// reference and the returned position must name k.
func (m *tableModel) insert(k keyspace.Key) {
	p, found := m.tab.search(k)
	if _, ok := m.ids[k]; ok != found {
		m.t.Fatalf("search(%v) found %v, reference %v", k, found, ok)
	}
	if found {
		return
	}
	m.nextID++
	p = m.tab.insert(p, k, []replica{{holder: k, entry: entry{stamp: Stamp{Seq: m.nextID}}}})
	if got, _ := m.tab.at(p); got != k {
		m.t.Fatalf("insert(%v) returned a position naming %v", k, got)
	}
	m.ids[k] = m.nextID
	m.keys = slices.Insert(m.keys, lowerBound(m.keys, k), k)
}

// remove drops the stored key at reference index i.
func (m *tableModel) remove(i int) {
	k := m.keys[i]
	p, found := m.tab.search(k)
	if !found {
		m.t.Fatalf("stored key %v not found", k)
	}
	m.tab.remove(p)
	delete(m.ids, k)
	m.keys = slices.Delete(m.keys, i, i+1)
}

// find checks search and at for any key.
func (m *tableModel) find(k keyspace.Key) {
	p, found := m.tab.search(k)
	id, ok := m.ids[k]
	if found != ok {
		m.t.Fatalf("search(%v) found %v, reference %v", k, found, ok)
	}
	if !found {
		return
	}
	got, rec := m.tab.at(p)
	if got != k || len(*rec) != 1 || (*rec)[0].holder != k || (*rec)[0].stamp.Seq != id {
		m.t.Fatalf("search(%v) names key %v with record %v, want record %d", k, got, *rec, id)
	}
}

// walk checks seek(k) and then n steps of next, wrapping from the end to
// the start as a ring scan does, against the reference.
func (m *tableModel) walk(k keyspace.Key, n int) {
	p := m.tab.seek(k)
	i := lowerBound(m.keys, k)
	if (i == len(m.keys)) != (p == m.tab.end()) {
		m.t.Fatalf("seek(%v) = %v, reference index %d of %d", k, p, i, len(m.keys))
	}
	for step := 0; step < n && len(m.keys) > 0; step++ {
		if !m.tab.valid(p) {
			p, i = pos{}, 0
		}
		if got, _ := m.tab.at(p); got != m.keys[i] {
			m.t.Fatalf("walk from %v, step %d: key %v, want %v", k, step, got, m.keys[i])
		}
		p, i = m.tab.next(p), i+1
		if i == len(m.keys) {
			i = 0
		}
	}
}

// span checks runs and count for the interval [lo, hi) against the
// reference keys inside it, in the runs' walk order.
func (m *tableModel) span(iv keyspace.Interval) {
	var want keyspace.Points
	for _, k := range m.keys {
		if iv.Contains(k) && (iv.Lo <= iv.Hi || k < iv.Hi) {
			want = append(want, k)
		}
	}
	for _, k := range m.keys {
		if iv.Lo > iv.Hi && k >= iv.Lo {
			want = append(want, k)
		}
	}
	var got keyspace.Points
	n := 0
	for _, run := range m.tab.runs(iv) {
		n += m.tab.count(run[0], run[1])
		for p := run[0]; p != run[1]; p = m.tab.next(p) {
			k, _ := m.tab.at(p)
			got = append(got, k)
		}
	}
	if !slices.Equal(got, want) || n != len(want) {
		m.t.Fatalf("runs(%v) read %d keys (count %d), want %d", iv, len(got), n, len(want))
	}
}

// check verifies the table's structure against the reference: blocks
// non-empty and at most blockSize keys, firsts naming each block's first
// key, records beside their keys, and all keys ascending and equal to
// the reference.
func (m *tableModel) check() {
	if len(m.tab.firsts) != len(m.tab.blocks) {
		m.t.Fatalf("%d firsts for %d blocks", len(m.tab.firsts), len(m.tab.blocks))
	}
	var all keyspace.Points
	for b, blk := range m.tab.blocks {
		if len(blk.keys) == 0 || len(blk.keys) > blockSize || len(blk.recs) != len(blk.keys) {
			m.t.Fatalf("block %d holds %d keys and %d records", b, len(blk.keys), len(blk.recs))
		}
		if m.tab.firsts[b] != blk.keys[0] {
			m.t.Fatalf("firsts[%d] = %v, block starts at %v", b, m.tab.firsts[b], blk.keys[0])
		}
		for i, rec := range blk.recs {
			if len(rec) != 1 || rec[0].holder != blk.keys[i] {
				m.t.Fatalf("block %d: record %d does not belong to key %v", b, i, blk.keys[i])
			}
		}
		all = append(all, blk.keys...)
	}
	if !slices.Equal(all, m.keys) {
		m.t.Fatalf("table holds %d keys, reference %d (or out of order)", len(all), len(m.keys))
	}
	if n := m.tab.count(pos{}, m.tab.end()); n != len(m.keys) {
		m.t.Fatalf("count over the table = %d, want %d", n, len(m.keys))
	}
}

// run decodes ops into table operations, checking each against the
// reference. Keys are 16-bit fractions, so repeats are common; bulk
// operations insert or remove up to 256 keys at once, enough to split
// blocks and to empty them.
func (m *tableModel) run(ops []byte) {
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
		switch next() % 8 {
		case 0:
			m.insert(key())
		case 1: // a run of keys: ascending, descending or scattered
			start, n, mode := next()<<8|next(), 1+next(), next()%3
			for j := 0; j < n; j++ {
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
			if len(m.keys) > 0 {
				m.remove(next() * 257 % len(m.keys))
			}
		case 3: // a run of consecutive stored keys
			if len(m.keys) > 0 {
				i := (next()<<8 | next()) % len(m.keys)
				for n := 1 + next(); n > 0 && i < len(m.keys); n-- {
					m.remove(i)
				}
			}
		case 4:
			m.find(key())
		case 5:
			m.walk(key(), next()*3)
		case 6:
			m.span(keyspace.Interval{Lo: key(), Hi: key()})
		case 7: // the first or the last block, whole
			if b := len(m.tab.blocks); b > 0 {
				blk := m.tab.blocks[0]
				i := 0
				if next()%2 == 1 {
					blk, i = m.tab.blocks[b-1], len(m.keys)-len(m.tab.blocks[b-1].keys)
				}
				for range blk.keys {
					m.remove(i)
				}
			}
		}
		m.check()
	}
}

// TestRecTableModel runs seeded random operation sequences against the
// reference, and checks that they split blocks and remove emptied
// blocks at the front, the back and in between.
func TestRecTableModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := xrand.New(seed)
		ops := make([]byte, 4000)
		for i := range ops {
			ops[i] = byte(r.Uint64())
		}
		newTableModel(t).run(ops)
	}
}

// TestRecTableBlocks walks the block life cycle by hand: ascending and
// descending inserts split the last and the first block, and removing a
// block's keys drops the block wherever it sits.
func TestRecTableBlocks(t *testing.T) {
	m := newTableModel(t)
	for u := 0; u < 4*blockSize; u++ { // ascending: splits at the back
		m.insert(keyspace.Key(0.5 + float64(u)/65536))
	}
	for u := 1; u <= 4*blockSize; u++ { // descending: splits at the front
		m.insert(keyspace.Key(0.5 - float64(u)/65536))
	}
	m.check()
	// Each direction leaves a block's half behind every blockSize/2 keys.
	if b := len(m.tab.blocks); b < 2*(4*blockSize/(blockSize/2)-1) {
		t.Fatalf("%d blocks after %d inserts, want at least %d", b, len(m.keys), 2*(4*blockSize/(blockSize/2)-1))
	}
	// A half left behind by a split holds arrays of its own size, not the
	// full block's: under twice its length (the allocator rounds up).
	for b, blk := range m.tab.blocks {
		if n := len(blk.keys); cap(blk.keys) >= 2*n || cap(blk.recs) >= 2*n {
			t.Fatalf("block %d of %d keys keeps capacity %d/%d", b, n, cap(blk.keys), cap(blk.recs))
		}
	}
	for _, which := range []string{"first", "last", "middle"} {
		b0 := len(m.tab.blocks)
		b := map[string]int{"first": 0, "last": b0 - 1, "middle": b0 / 2}[which]
		i := m.tab.count(pos{}, pos{b, 0})
		for n := len(m.tab.blocks[b].keys); n > 0; n-- {
			m.remove(i)
		}
		m.check()
		if len(m.tab.blocks) != b0-1 {
			t.Fatalf("emptying the %s block left %d blocks, want %d", which, len(m.tab.blocks), b0-1)
		}
		m.walk(0, 2*len(m.keys))
	}
	for len(m.keys) > 0 {
		m.remove(len(m.keys) / 2)
	}
	m.check()
	m.walk(0.3, 4)
	m.span(keyspace.Interval{Lo: 0.9, Hi: 0.1})
	m.insert(0.25)
	m.check()
}

// FuzzRecTable drives the record table from arbitrary operation bytes
// against the sorted-slice reference (see tableModel.run). Seed corpus
// in testdata/fuzz/FuzzRecTable.
func FuzzRecTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		newTableModel(t).run(ops)
	})
}
