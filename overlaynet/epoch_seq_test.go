package overlaynet

import (
	"cmp"
	"context"
	"math"
	"slices"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// TestEpochSequenceBitIdentical drives 1k churn events through the
// chunked-snapshot path, capturing a snapshot after every event, and
// pins each epoch's Keys()/rank lookups and every out-row bit-identical
// to the flat reference (captureFlat, which derives the rank index by
// sorting the identifiers, and each row from key order and the
// in-lists).
// Retained
// (snapshot, reference) pairs are re-verified after the full run, so a
// copy-on-write violation that mutates an already-published chunk or
// row block fails the test even if the at-capture comparison passed.
func TestEpochSequenceBitIdentical(t *testing.T) {
	dyn, err := NewIncremental(context.Background(), "smallworld-skewed", Options{
		N: 512, Seed: 23, Dist: dist.NewPower(0.7), Topology: keyspace.Ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := dyn.(*incrementalOverlay)
	rng := xrand.New(99)

	type pinned struct {
		snap *Snapshot
		ref  flatCapture
	}
	var retained []pinned

	const events = 1000
	for ev := 0; ev < events; ev++ {
		if rng.Bool(0.5) && o.N() > 3 {
			if err := o.Leave(context.Background(), rng.Intn(o.N())); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := o.Join(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		snap := o.CaptureSnapshot()
		ref := o.captureFlat()
		compareSnapshotToFlat(t, ev, snap, ref)
		if ev%100 == 0 {
			retained = append(retained, pinned{snap, ref})
		}
	}

	// Old epochs must have survived all subsequent copy-on-write churn.
	for i, p := range retained {
		compareSnapshotToFlat(t, -i, p.snap, p.ref)
	}
}

// flatCapture is the flat reference for one epoch: the identifier of
// every slot, the rank index as flat arrays — byKey the identifiers
// ascending, order[i] the slot holding byKey[i] — and every slot's
// out-row.
type flatCapture struct {
	keys  []keyspace.Key
	byKey keyspace.Points
	order []int32
	rows  [][]int32
}

// captureFlat copies the overlay's identifiers, derives the rank index
// from them by sorting and rebuilds every row from the key-order
// neighbours that sort gives and the long links the in-lists record (u
// links v iff u is in in[v]), sorted and deduplicated, so it never
// reads the rank index or the out-rows it is the reference for.
func (o *incrementalOverlay) captureFlat() flatCapture {
	keys := o.Keys()
	order := make([]int32, len(keys))
	for u := range order {
		order[u] = int32(u)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	byKey := make(keyspace.Points, len(keys))
	for i, u := range order {
		byKey[i] = keys[u]
	}
	rows := make([][]int32, len(keys))
	for i, u := range order {
		for _, v := range keyOrderFlanks(o.topo, order, i) {
			if v >= 0 {
				rows[u] = append(rows[u], v)
			}
		}
	}
	for v := range rows {
		for _, u := range o.in.list(int32(v)) {
			rows[u] = append(rows[u], int32(v))
		}
	}
	for u, row := range rows {
		slices.Sort(row)
		rows[u] = slices.Compact(row)
	}
	return flatCapture{keys: keys, byKey: byKey, order: order, rows: rows}
}

// keyOrderFlanks returns the slots beside rank i of order, the slots in
// key order, predecessor first: cyclic on the ring, -1 past the line's
// ends and -1 twice for a single node.
func keyOrderFlanks(topo keyspace.Topology, order []int32, i int) [2]int32 {
	n := len(order)
	if topo == keyspace.Ring && n > 1 {
		return [2]int32{order[(i-1+n)%n], order[(i+1)%n]}
	}
	f := [2]int32{-1, -1}
	if i > 0 {
		f[0] = order[i-1]
	}
	if i+1 < n {
		f[1] = order[i+1]
	}
	return f
}

// compareSnapshotToFlat checks every read surface of a chunked
// snapshot against the flat reference arrays: per-slot keys, the full
// Keys() materialization, every out-row and the CSR() materialization, per-rank key/slot reads, the search
// family (Successor/Predecessor/Nearest) on a probe sweep, and the
// mirrors the writer reads (NearestExcluding, Has, Cell) at chunk
// boundaries.
func compareSnapshotToFlat(t *testing.T, ev int, s *Snapshot, ref flatCapture) {
	t.Helper()
	n := len(ref.keys)
	fold := rowByRowFold(ref.rows)
	if s.N() != n || s.rank.Len() != n || s.adj.n != n {
		t.Fatalf("ev %d: N %d / rank %d / rows %d, want N %d",
			ev, s.N(), s.rank.Len(), s.adj.n, n)
	}
	for u := 0; u < n; u++ {
		if !slices.Equal(s.Neighbors(u), ref.rows[u]) {
			t.Fatalf("ev %d: Neighbors(%d) = %v, want %v", ev, u, s.Neighbors(u), ref.rows[u])
		}
	}
	csr := s.CSR()
	if csr.N() != n || csr.M() != fold.M() {
		t.Fatalf("ev %d: CSR() N %d M %d, want N %d M %d", ev, csr.N(), csr.M(), n, fold.M())
	}
	for u := 0; u < n; u++ {
		if !slices.Equal(csr.Out(u), ref.rows[u]) {
			t.Fatalf("ev %d: CSR() row %d = %v, want %v", ev, u, csr.Out(u), ref.rows[u])
		}
	}
	for u := 0; u < n; u++ {
		if s.Key(u) != ref.keys[u] {
			t.Fatalf("ev %d: Key(%d) = %v, want %v", ev, u, s.Key(u), ref.keys[u])
		}
	}
	flat := s.keys.materialize()
	for u := 0; u < n; u++ {
		if flat[u] != ref.keys[u] {
			t.Fatalf("ev %d: materialized keys differ at %d", ev, u)
		}
	}
	for i := 0; i < n; i++ {
		if s.rank.KeyAt(i) != ref.byKey[i] {
			t.Fatalf("ev %d: KeyAt(%d) = %v, want %v", ev, i, s.rank.KeyAt(i), ref.byKey[i])
		}
		if s.rank.SlotAt(i) != ref.order[i] {
			t.Fatalf("ev %d: SlotAt(%d) = %d, want %d", ev, i, s.rank.SlotAt(i), ref.order[i])
		}
	}
	// Probe the search family at existing keys, their midpoints, and
	// the space's edges — every comparison the routers' termination
	// logic performs must agree with keyspace.Points bit-exactly.
	probe := func(x keyspace.Key) {
		if got, want := s.rank.Successor(x), ref.byKey.Successor(x); got != want {
			t.Fatalf("ev %d: Successor(%v) = %d, want %d", ev, x, got, want)
		}
		if got, want := s.rank.Predecessor(x), ref.byKey.Predecessor(x); got != want {
			t.Fatalf("ev %d: Predecessor(%v) = %d, want %d", ev, x, got, want)
		}
		for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
			if got, want := s.rank.Nearest(topo, x), ref.byKey.Nearest(topo, x); got != want {
				t.Fatalf("ev %d: Nearest(%v, %v) = %d, want %d", ev, topo, x, got, want)
			}
		}
	}
	step := n/64 + 1
	for i := 0; i < n; i += step {
		probe(ref.byKey[i])
		probe(keyspace.Key(float64(ref.byKey[i]) + 1e-12))
		if i+1 < n {
			probe(keyspace.Key((float64(ref.byKey[i]) + float64(ref.byKey[i+1])) / 2))
		}
	}
	probe(0)
	probe(keyspace.Key(0.5))
	probe(keyspace.Key(math.Nextafter(1, 0)))

	// The writer's mirrors, against keyspace.Points and keyspace.Cell on
	// the reference: at ranks 0 and n-1 (the ring wrap), the first and
	// last rank of every chunk, and exact midpoints, with the excluded
	// rank at the probe, on either side of it, and absent.
	topos := []keyspace.Topology{keyspace.Ring, keyspace.Line}
	ranks := []int{0, n - 1}
	for j := range s.rank.chunks {
		ranks = append(ranks, int(s.rank.cum[j]), int(s.rank.cum[j+1])-1)
	}
	for _, i := range ranks {
		for _, topo := range topos {
			if got, want := s.rank.Cell(topo, i), keyspace.Cell(topo, ref.byKey, i); got != want {
				t.Fatalf("ev %d: Cell(%v, %d) = %v, want %v", ev, topo, i, got, want)
			}
		}
		lo, hi := ref.byKey[i], ref.byKey[(i+1)%n]
		for _, x := range []keyspace.Key{
			lo,
			keyspace.Key(math.Nextafter(float64(lo), 1)),
			keyspace.Key((float64(lo) + float64(hi)) / 2),
			keyspace.MidpointRing(lo, hi),
		} {
			_, member := slices.BinarySearch(ref.byKey, x)
			if got := s.rank.Has(x); got != member {
				t.Fatalf("ev %d: Has(%v) = %v, want %v", ev, x, got, member)
			}
			for _, self := range []int{i, (i + 1) % n, (i + n - 1) % n, -1} {
				for _, topo := range topos {
					if got, want := s.rank.NearestExcluding(topo, x, self), ref.byKey.NearestExcluding(topo, x, self); got != want {
						t.Fatalf("ev %d: NearestExcluding(%v, %v, %d) = %d, want %d", ev, topo, x, self, got, want)
					}
				}
			}
		}
	}
}
