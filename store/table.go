package store

import (
	"slices"

	"smallworld/keyspace"
)

// blockSize is the most keys one record block holds.
const blockSize = 128

// recBlock is a run of consecutive stored keys, ascending, and their
// records: recs[i] holds the copies of keys[i].
type recBlock struct {
	keys keyspace.Points
	recs [][]replica
}

// recTable holds every stored key and its record in key order, cut into
// blocks of at most blockSize keys. firsts[b] is block b's first key, so
// finding a key is a binary search over firsts and one inside a block,
// and a range read walks the blocks in place. A block that fills splits
// in two; a block that empties is dropped.
type recTable struct {
	firsts keyspace.Points
	blocks []recBlock
}

// pos is a position in a recTable: key i of block b. Only an insert or
// a removal moves keys, so a position stays valid across every other
// change, record writes included. A normalised position names a key or
// is the end, {len(blocks), 0}; seek and next return normalised
// positions, so two of them are equal exactly when they name the same
// place.
type pos struct{ b, i int }

// lowerBound returns the index of the first key in p at or above k.
func lowerBound(p keyspace.Points, k keyspace.Key) int {
	lo, hi := 0, len(p)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// search returns the position of k's record and true when k is stored.
// Otherwise it returns where k would go: the first key above it, or the
// end of the block before that key.
func (t *recTable) search(k keyspace.Key) (pos, bool) {
	// The last block whose first key is at or below k.
	b := lowerBound(t.firsts, k)
	if b == len(t.firsts) || t.firsts[b] != k {
		b--
	}
	if b < 0 {
		return pos{}, false
	}
	keys := t.blocks[b].keys
	i := lowerBound(keys, k)
	return pos{b, i}, i < len(keys) && keys[i] == k
}

// seek returns the normalised position of the first key at or above k.
func (t *recTable) seek(k keyspace.Key) pos {
	p, _ := t.search(k)
	if p.b < len(t.blocks) && p.i == len(t.blocks[p.b].keys) {
		return pos{p.b + 1, 0}
	}
	return p
}

// end is the position after the last key.
func (t *recTable) end() pos { return pos{len(t.blocks), 0} }

// valid reports whether p names a key.
func (t *recTable) valid(p pos) bool { return p.b < len(t.blocks) }

// next returns the normalised position after p, which must name a key.
func (t *recTable) next(p pos) pos {
	if p.i++; p.i == len(t.blocks[p.b].keys) {
		return pos{p.b + 1, 0}
	}
	return p
}

// at returns the key at p and its record, which the caller may change
// in place.
func (t *recTable) at(p pos) (keyspace.Key, *[]replica) {
	blk := &t.blocks[p.b]
	return blk.keys[p.i], &blk.recs[p.i]
}

// count returns the number of keys from p up to q, p at or before q.
func (t *recTable) count(p, q pos) int {
	n := q.i - p.i
	for b := p.b; b < q.b; b++ {
		n += len(t.blocks[b].keys)
	}
	return n
}

// runs returns the stored keys inside iv as two runs of positions, each
// from its first position up to its second, to be walked in order: for
// a wrapping interval the keys below iv.Hi come before those from
// iv.Lo. An unused run is empty.
func (t *recTable) runs(iv keyspace.Interval) [2][2]pos {
	if iv.Lo <= iv.Hi {
		return [2][2]pos{{t.seek(iv.Lo), t.seek(iv.Hi)}}
	}
	return [2][2]pos{{{}, t.seek(iv.Hi)}, {t.seek(iv.Lo), t.end()}}
}

// insert adds k with record rec at p, the position search returned for
// k, and returns k's position; a full block splits first.
func (t *recTable) insert(p pos, k keyspace.Key, rec []replica) pos {
	if len(t.blocks) == 0 {
		t.firsts = append(t.firsts, k)
		t.blocks = append(t.blocks, recBlock{keys: keyspace.Points{k}, recs: [][]replica{rec}})
		return pos{}
	}
	if len(t.blocks[p.b].keys) == blockSize {
		t.split(p.b)
		if half := blockSize / 2; p.i > half {
			p = pos{p.b + 1, p.i - half}
		}
	}
	blk := &t.blocks[p.b]
	blk.keys = slices.Insert(blk.keys, p.i, k)
	blk.recs = slices.Insert(blk.recs, p.i, rec)
	t.firsts[p.b] = blk.keys[0]
	return p
}

// split cuts full block b into two halves, each copied into an array of
// its own size: a half that keeps the full block's array would hold
// twice its keys' worth of memory until it grows again, which a half
// left behind by ascending inserts never does.
func (t *recTable) split(b int) {
	const half = blockSize / 2
	full := t.blocks[b]
	t.blocks[b] = recBlock{keys: slices.Clone(full.keys[:half]), recs: slices.Clone(full.recs[:half])}
	right := recBlock{keys: slices.Clone(full.keys[half:]), recs: slices.Clone(full.recs[half:])}
	t.blocks = slices.Insert(t.blocks, b+1, right)
	t.firsts = slices.Insert(t.firsts, b+1, right.keys[0])
}

// remove drops the key at p and its record; a block left empty goes.
func (t *recTable) remove(p pos) {
	blk := &t.blocks[p.b]
	if len(blk.keys) == 1 {
		t.blocks = slices.Delete(t.blocks, p.b, p.b+1)
		t.firsts = slices.Delete(t.firsts, p.b, p.b+1)
		return
	}
	blk.keys = slices.Delete(blk.keys, p.i, p.i+1)
	blk.recs = slices.Delete(blk.recs, p.i, p.i+1)
	t.firsts[p.b] = blk.keys[0]
}
