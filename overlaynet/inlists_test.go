package overlaynet

import (
	"slices"
	"testing"

	"smallworld/xrand"
)

// inListModel drives inLists, the incremental writer's in-list store,
// against [][]int32 lists with append and swap-delete semantics, and
// tracks each row's room by the rule: a list is laid out in a row of
// its length rounded up to a multiple of four, an append to a full row
// grows it by four, and nothing else changes a row's length but a move,
// which hands the row over whole. After every operation each row's
// live prefix must equal its model list in order, and the row's length
// must equal the model's room.
type inListModel struct {
	t    *testing.T
	il   *inLists
	m    [][]int32
	room []int
}

// newInListModel builds both sides from out-lists, as NewIncremental
// does: u links every slot in out[u].
func newInListModel(t *testing.T, out [][]int32) *inListModel {
	m := &inListModel{t: t, il: newInLists(len(out), func(u int) []int32 { return out[u] }), m: make([][]int32, len(out)), room: make([]int, len(out))}
	for u, vs := range out {
		for _, v := range vs {
			m.m[v] = append(m.m[v], int32(u))
		}
	}
	for v, l := range m.m {
		m.room[v] = (len(l) + 3) / 4 * 4
	}
	return m
}

func (m *inListModel) add(v, u int32) {
	m.il.add(v, u)
	if len(m.m[v]) == m.room[v] {
		m.room[v] += 4
	}
	m.m[v] = append(m.m[v], u)
}

func (m *inListModel) drop(v, u int32) {
	m.il.drop(v, u)
	s := m.m[v]
	if i := slices.Index(s, u); i >= 0 {
		s[i] = s[len(s)-1]
		m.m[v] = s[:len(s)-1]
	}
}

func (m *inListModel) rename(v, from, to int32) {
	m.il.rename(v, from, to)
	if i := slices.Index(m.m[v], from); i >= 0 {
		m.m[v][i] = to
	}
}

// moveLast moves the last slot's list into slot h and drops the last
// slot, as Leave does.
func (m *inListModel) moveLast(h int32) {
	last := int32(len(m.m) - 1)
	if h != last {
		m.il.move(h, last)
		m.m[h], m.room[h] = m.m[last], m.room[last]
	}
	m.pop()
}

func (m *inListModel) push() {
	m.il.push()
	m.m, m.room = append(m.m, nil), append(m.room, 0)
}

func (m *inListModel) pop() {
	m.il.pop()
	m.m, m.room = m.m[:len(m.m)-1], m.room[:len(m.room)-1]
}

// check compares every row with its model list.
func (m *inListModel) check() {
	t := m.t
	t.Helper()
	if m.il.n != len(m.m) {
		t.Fatalf("store holds %d rows, model %d", m.il.n, len(m.m))
	}
	checkAdjBlocks(t, m.il.adjView)
	if slices.Contains(m.il.spanShared, true) || slices.ContainsFunc(m.il.shared, func(b uint64) bool { return b != 0 }) {
		t.Fatal("the in-list store marked a span or block shared")
	}
	for v, want := range m.m {
		row, got := m.il.Row(v), m.il.list(int32(v))
		if !slices.Equal(got, want) {
			t.Fatalf("in-list %d is %v, want %v", v, got, want)
		}
		if len(row) != m.room[v] {
			t.Fatalf("in-list %d of %d entries has a row of %d, want %d", v, len(want), len(row), m.room[v])
		}
		if slices.ContainsFunc(row[len(got):], func(x int32) bool { return x != -1 }) {
			t.Fatalf("in-list %d: row %v holds more than -1 past its list", v, row)
		}
	}
}

// maxInList bounds a list in the decoded runs, so that a block of 16
// rows stays far below the 65535 entries a block can hold.
const maxInList = 512

// runInListOps builds a population from the first bytes of ops and
// decodes the rest into store operations, checking after each. Runs of
// appends and of pushes and pops reach full blocks, row growth inside
// them, long lists and emptied last blocks.
func runInListOps(t *testing.T, ops []byte) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	n0 := next() % 40
	out := make([][]int32, n0)
	for u := range out {
		for k := next() % 8; k > 0; k-- {
			out[u] = append(out[u], int32(next()%n0))
		}
	}
	m := newInListModel(t, out)
	m.check()
	// entry picks an entry of v's list, or an arbitrary value that may
	// be absent from it.
	entry := func(v int32) int32 {
		j := next()
		if s := m.m[v]; len(s) > 0 && j < 192 {
			return s[j%len(s)]
		}
		return int32(j)
	}
	for len(ops) > 0 {
		op, n := next()%7, len(m.m)
		if n == 0 && op < 5 {
			m.push()
			m.check()
			continue
		}
		v := int32(next() % max(n, 1))
		switch op {
		case 0:
			if len(m.m[v]) < maxInList {
				m.add(v, int32(next()<<8|next()))
			}
		case 1: // a run of appends
			base := int32(next() << 4)
			for j := int32(1 + next()%48); j > 0 && len(m.m[v]) < maxInList; j-- {
				m.add(v, base+j)
			}
		case 2:
			m.drop(v, entry(v))
		case 3:
			m.rename(v, entry(v), int32(next()<<8|next()))
		case 4:
			m.moveLast(v)
		case 5:
			for j := 1 + next()%20; j > 0; j-- {
				m.push()
			}
		case 6:
			for j := 1 + next()%20; j > 0 && len(m.m) > 0; j-- {
				m.pop()
			}
		}
		m.check()
	}
}

// TestInListStoreMatchesSlices runs seeded random operation sequences
// against the slice model, then three scripted cases: a list that
// outgrows its room inside a full block, a long list moved into an
// emptied slot, and a pop that empties the last block.
func TestInListStoreMatchesSlices(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		rng := xrand.New(seed)
		ops := make([]byte, 800)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		runInListOps(t, ops)
	}

	// Eighteen slots, each linked by a few others: the first block is
	// full and every row in it has room.
	out := make([][]int32, 18)
	for u := range out {
		for k := 1; k <= 3; k++ {
			out[u] = append(out[u], int32((u+k)%len(out)))
		}
	}
	m := newInListModel(t, out)
	m.check()
	grow := int32(5)
	for len(m.m[grow]) < m.room[grow] {
		m.add(grow, 100)
		m.check()
	}
	before := slices.Clone(m.il.block(0).tgt[m.il.block(0).off[grow+1]:])
	m.add(grow, 101) // outgrows its room; rows 6-15 shift
	m.check()
	if after := m.il.block(0).tgt[m.il.block(0).off[grow+1]:]; !slices.Equal(after, before) || len(after) == 0 {
		t.Fatalf("rows after the grown one changed: %v, were %v", after, before)
	}

	// A long list in the last slot moves into a slot emptied by drops.
	last := int32(len(m.m) - 1)
	for j := int32(0); j < 40; j++ {
		m.add(last, 200+j)
	}
	hole := int32(3)
	for len(m.m[hole]) > 0 {
		m.drop(hole, m.m[hole][0])
	}
	m.check()
	m.moveLast(hole)
	m.check()
	if len(m.il.list(hole)) != 43 || len(m.il.Row(int(hole))) != 44 {
		t.Fatalf("moved list has %d entries in a row of %d, want 43 in 44", len(m.il.list(hole)), len(m.il.Row(int(hole))))
	}

	// 17 slots: a pop empties the second block.
	if len(m.m) != 17 || len(m.m[16]) == 0 {
		t.Fatalf("%d slots, the last holding %d entries: want 17, the last not empty", len(m.m), len(m.m[16]))
	}
	m.pop()
	m.check()
	if b := m.il.block(16); len(b.tgt) != 0 {
		t.Fatalf("the emptied last block holds %v", b.tgt)
	}
}

// FuzzInListStore drives the in-list store from arbitrary operation
// bytes against the slice model (see runInListOps). Seed corpus in
// testdata/fuzz/FuzzInListStore.
func FuzzInListStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		runInListOps(t, ops)
	})
}
