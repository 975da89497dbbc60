package keyspace

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// skewedPoints builds n distinct keys crowded toward 0 (power-law
// spacing), the population shape the paper's skewed model creates.
func skewedPoints(n int, pow float64, salt uint64) Points {
	p := make(Points, 0, n)
	seen := map[Key]bool{}
	s := salt*2654435761 + 12345
	for len(p) < n {
		s = s*6364136223846793005 + 1442695040888963407
		u := float64(s>>11) / (1 << 53)
		k := Clamp(math.Pow(u, pow))
		if !seen[k] {
			seen[k] = true
			p = append(p, k)
		}
	}
	return SortPoints(p)
}

// checkCells asserts that the cells of p tile the key space: their
// lengths sum to 1 within 1e-9, and each probe lies in exactly one
// cell, whose index Owner returns.
func checkCells(t testing.TB, topo Topology, p Points, probes []Key) {
	t.Helper()
	sum := 0.0
	for i := range p {
		sum += Cell(topo, p, i).Length()
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("%v %v: cell lengths sum to %v, want 1", topo, p, sum)
	}
	for _, k := range probes {
		owners, ownerIdx := 0, -1
		for i := range p {
			if Cell(topo, p, i).Contains(k) {
				owners++
				ownerIdx = i
			}
		}
		if owners != 1 {
			t.Fatalf("%v %v: key %v in %d cells, want exactly 1", topo, p, k, owners)
		}
		if got := Owner(topo, p, k); got != ownerIdx {
			t.Fatalf("%v %v: Owner(%v) = %d, want %d", topo, p, k, got, ownerIdx)
		}
	}
}

// TestCellTiling pins the cell invariants under skewed keys and
// non-power-of-two populations, on both topologies: cells are pairwise
// disjoint, their lengths sum to the full key space, and every probe
// key lies in exactly one cell — whose index Owner returns.
func TestCellTiling(t *testing.T) {
	for _, topo := range []Topology{Ring, Line} {
		for _, n := range []int{1, 2, 3, 7, 37, 100, 257} {
			for _, pow := range []float64{1, 3, 8} {
				p := skewedPoints(n, pow, uint64(n)*1000+uint64(pow))
				// Probe keys: uniform grid plus the identifiers and cell
				// boundaries themselves (the half-open edge cases).
				probes := make([]Key, 0, 4*n+64)
				for i := 0; i < 64; i++ {
					probes = append(probes, Key(float64(i)/64))
				}
				for i, k := range p {
					c := Cell(topo, p, i)
					probes = append(probes, k, c.Lo)
					if c.Hi.Valid() {
						probes = append(probes, c.Hi)
					}
				}
				checkCells(t, topo, p, probes)
			}
		}
	}
}

// TestRingCellsUlpAdjacentPair is the regression for two ring points one
// ulp apart: the clockwise arc from the upper back to the lower rounded
// to 1 and wrapped to 0, so both cells came out as [b, b) and no point
// owned any key.
func TestRingCellsUlpAdjacentPair(t *testing.T) {
	a := Key(math.Nextafter(0.25, 1))
	b := Key(math.Nextafter(float64(a), 1))
	checkCells(t, Ring, Points{a, b}, []Key{0, 0.25, a, b, 0.5, 0.75})
}

// TestCellDisjointRanges verifies adjacent cells share only their
// half-open boundary: cell i's Hi equals cell i+1's Lo (ring: cyclic).
func TestCellDisjointRanges(t *testing.T) {
	for _, topo := range []Topology{Ring, Line} {
		p := skewedPoints(37, 5, 7)
		n := len(p)
		for i := 0; i < n; i++ {
			if topo == Line && i == n-1 {
				continue
			}
			next := (i + 1) % n
			hi := Cell(topo, p, i).Hi
			lo := Cell(topo, p, next).Lo
			if hi != lo {
				t.Fatalf("%v: cell %d Hi %v != cell %d Lo %v", topo, i, hi, next, lo)
			}
		}
	}
}

// TestOwnerDegenerate pins the zero-width-cell convention: duplicate
// spacing (adjacent identifiers one ulp apart) keeps exactly one owner
// per key.
func TestOwnerDegenerate(t *testing.T) {
	base := Key(0.5)
	up := Key(math.Nextafter(0.5, 1))
	p := Points{0.1, base, up, 0.9}
	for _, topo := range []Topology{Ring, Line} {
		for _, k := range []Key{0.1, base, up, 0.9, 0.49, 0.51} {
			owners := 0
			for i := range p {
				if Cell(topo, p, i).Contains(k) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("%v: key %v owned by %d cells", topo, k, owners)
			}
			i := Owner(topo, p, k)
			if !Cell(topo, p, i).Contains(k) {
				t.Fatalf("%v: Owner(%v)=%d but cell %v does not contain it", topo, k, i, Cell(topo, p, i))
			}
		}
	}
}

// TestCellLineTopEnd pins the line's top cell: Hi is exactly 1 (not
// math.Nextafter(1, 2), which leaked a Key > 1 into Interval.Length and
// coverage arithmetic), the top end stays covered inclusively, and cell
// lengths sum to exactly the unit interval.
func TestCellLineTopEnd(t *testing.T) {
	p := skewedPoints(64, 3, 103)
	top := Cell(Line, p, len(p)-1)
	if top.Hi != 1 {
		t.Fatalf("top cell Hi = %.20g, want exactly 1", float64(top.Hi))
	}
	if !top.Contains(Key(math.Nextafter(1, 0))) {
		t.Fatal("top cell does not cover the largest valid key")
	}
	if top.Length() > 1 {
		t.Fatalf("top cell length %v exceeds the space", top.Length())
	}
	var total float64
	for i := range p {
		total += Cell(Line, p, i).Length()
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("cells cover %.17g of the line, want 1", total)
	}
}

// TestCellDegenerateSpacing pins the zero-width-cell convention on
// ulp-dense clusters (nine keys one ulp apart at 0.5, two just below the
// ring wrap) beside isolated keys: every cell's length lies in [0, 1],
// the cells still tile the space, and every key, its float neighbours
// and 0 lie in exactly one cell. MidpointRing of a zero arc is the point
// itself (the duplicate-identifier definition).
func TestCellDegenerateSpacing(t *testing.T) {
	if got := MidpointRing(0.25, 0.25); got != 0.25 {
		t.Fatalf("MidpointRing(a, a) = %v, want a", got)
	}
	var p Points
	for i, x := 0, 0.5; i < 9; i, x = i+1, math.Nextafter(x, 1) {
		p = append(p, Key(x))
	}
	below := math.Nextafter(math.Nextafter(1, 0), 0)
	p = append(p, Key(below), Key(math.Nextafter(below, 1)), 0.05, 0.2, 0.8)
	p = SortPoints(p)
	probes := []Key{0}
	for _, k := range p {
		probes = append(probes, k, Key(math.Nextafter(float64(k), 0)))
		if up := Key(math.Nextafter(float64(k), 1)); up.Valid() {
			probes = append(probes, up)
		}
	}
	for _, topo := range []Topology{Ring, Line} {
		for i := range p {
			if l := Cell(topo, p, i).Length(); l < 0 || l > 1 {
				t.Fatalf("%v: cell %d has length %v", topo, i, l)
			}
		}
		checkCells(t, topo, p, probes)
	}
}

// fuzzKey decodes a key from float64 bits with the sign cleared; the
// result is valid for about half of all words.
func fuzzKey(bits uint64) Key { return Key(math.Float64frombits(bits &^ (1 << 63))) }

// ulpRun encodes n ulp-adjacent keys upward from x as FuzzCells input.
func ulpRun(x float64, n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		x = math.Nextafter(x, 1)
	}
	return b
}

// FuzzCells checks that cells tile [0,1) for any population of up to 16
// valid keys, decoded from 8-byte words of the input and sorted and
// deduplicated as every builder guarantees: the cell lengths sum to 1,
// and the probe key and every point each lie in exactly one cell, the
// one Owner returns. The seeds are ulp-adjacent runs (mid-range, at 0,
// below 1, around 0.5) and the one-ulp ring pair that left both cells
// empty.
func FuzzCells(f *testing.F) {
	f.Add(true, math.Float64bits(0.3), ulpRun(math.Nextafter(0.25, 1), 2))
	f.Add(false, math.Float64bits(0.3), ulpRun(math.Nextafter(0.25, 1), 2))
	f.Add(true, math.Float64bits(0.5), ulpRun(0.5, 16))
	f.Add(true, uint64(3), ulpRun(0, 16))
	f.Add(true, uint64(0), ulpRun(1-15*0x1p-53, 16))
	f.Add(false, math.Float64bits(0.999), ulpRun(1-15*0x1p-53, 16))
	f.Add(true, math.Float64bits(0.5), append(ulpRun(0, 1), ulpRun(1-0x1p-53, 1)...))
	f.Add(true, math.Float64bits(0.49), append(ulpRun(0.1, 1), append(ulpRun(0.5, 2), ulpRun(0.9, 1)...)...))
	f.Fuzz(func(t *testing.T, ring bool, key uint64, raw []byte) {
		k := fuzzKey(key)
		if !k.Valid() {
			return
		}
		var p Points
		for ; len(raw) >= 8 && len(p) < 16; raw = raw[8:] {
			if x := fuzzKey(binary.LittleEndian.Uint64(raw)); x.Valid() {
				p = append(p, x)
			}
		}
		if len(p) == 0 {
			return
		}
		p = slices.Compact(SortPoints(p))
		topo := Line
		if ring {
			topo = Ring
		}
		checkCells(t, topo, p, append([]Key{k}, p...))
	})
}
