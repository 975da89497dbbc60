package overlaynet

import (
	"context"
	"math"
	"slices"
	"testing"
	"unsafe"

	"smallworld"
	"smallworld/dist"
	"smallworld/graph"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// checkIncrementalInvariants verifies the full internal consistency of
// an incremental overlay: the rank index equals the one derived by
// sorting the live (unique) identifiers, the flanks read from it follow
// key order, each in-list names valid, distinct in-neighbours other
// than its own slot and is padded with -1 to a multiple of inRowRound,
// in a store that was never captured, the row blocks of both stores
// are well formed, and — most importantly — every row the routers read
// is strictly ascending and equals the slot's neighbours plus the long
// links the in-lists record.
// The last check is what catches a stale row surviving a slot rename,
// or a long link a splice dropped because it was also a neighbour.
func checkIncrementalInvariants(t *testing.T, o *incrementalOverlay) {
	t.Helper()
	n := o.N()
	if o.rankM.Len() != n || o.in.n != n || o.adj.n != n {
		t.Fatalf("inconsistent state sizes at n=%d", n)
	}
	ref := o.captureFlat()
	for rank, id := range ref.order {
		if rank > 0 && ref.byKey[rank] <= ref.byKey[rank-1] {
			t.Fatalf("identifier %v held twice", ref.byKey[rank])
		}
		if k, slot := o.rankM.KeyAt(rank), o.rankM.SlotAt(rank); k != ref.byKey[rank] || slot != id {
			t.Fatalf("rank %d: index holds %v in slot %d, want %v in slot %d", rank, k, slot, ref.byKey[rank], id)
		}
	}
	for rank, id := range ref.order {
		if got, want := o.flanks(o.posOf(id)), keyOrderFlanks(o.topo, ref.order, rank); got != want {
			t.Fatalf("slot %d (rank %d): flanks %v, want %v", id, rank, got, want)
		}
	}
	checkRankFence(t, o.rankM.rankView)
	for v := 0; v < n; v++ {
		ins, row := o.in.list(int32(v)), o.in.Row(v)
		seen := make(map[int32]bool, len(ins))
		for _, u := range ins {
			if int(u) == v || u < 0 || int(u) >= n {
				t.Fatalf("in-list of %d names invalid slot %d at n=%d", v, u, n)
			}
			if seen[u] {
				t.Fatalf("in-list of %d names %d twice: %v", v, u, ins)
			}
			seen[u] = true
		}
		if len(row)%inRowRound != 0 || slices.ContainsFunc(row[len(ins):], func(x int32) bool { return x != -1 }) {
			t.Fatalf("in-list row of %d is %v: want its list, then -1 up to a multiple of %d", v, row, inRowRound)
		}
	}
	for _, as := range []*adjStore{o.adj, &o.in.adjStore} {
		if len(as.shared) != len(as.spans) || len(as.spanShared) != len(as.spans) {
			t.Fatalf("%d/%d sharing flags for %d spans", len(as.spanShared), len(as.shared), len(as.spans))
		}
		checkAdjBlocks(t, as.adjView)
	}
	if slices.Contains(o.in.spanShared, true) || slices.ContainsFunc(o.in.shared, func(b uint64) bool { return b != 0 }) {
		t.Fatal("the in-list store was captured")
	}
	// The routed adjacency equals the adjacency recomputed from state.
	for u := 0; u < n; u++ {
		row := o.Neighbors(u)
		for i, v := range row {
			if int(v) == u || i > 0 && v <= row[i-1] {
				t.Fatalf("slot %d row %v not strictly ascending without itself", u, row)
			}
		}
		if want := ref.rows[u]; !slices.Equal(row, want) {
			t.Fatalf("slot %d row %v, want %v", u, row, want)
		}
	}
}

// checkRankFence verifies a rank view's spines: no empty chunk, cum
// counting the chunks' entries, and the fence holding each chunk's
// last key.
func checkRankFence(t *testing.T, v rankView) {
	t.Helper()
	if len(v.cum) != len(v.chunks)+1 || len(v.fence) != len(v.chunks) || v.cum[0] != 0 {
		t.Fatalf("%d chunks with %d cum and %d fence entries", len(v.chunks), len(v.cum), len(v.fence))
	}
	for j, ch := range v.chunks {
		if len(ch.keys) == 0 || len(ch.slots) != len(ch.keys) {
			t.Fatalf("chunk %d holds %d keys and %d slots", j, len(ch.keys), len(ch.slots))
		}
		if got := int(v.cum[j+1] - v.cum[j]); got != len(ch.keys) {
			t.Fatalf("cum counts %d entries in chunk %d of %d", got, j, len(ch.keys))
		}
		if last := ch.keys[len(ch.keys)-1]; v.fence[j] != last {
			t.Fatalf("fence[%d] = %v, chunk's last key %v", j, v.fence[j], last)
		}
	}
	if int(v.cum[len(v.chunks)]) != v.n {
		t.Fatalf("cum counts %d entries, index holds %d", v.cum[len(v.chunks)], v.n)
	}
}

// checkAdjBlocks verifies the row-block layout of an adjacency view:
// adjSpanLen blocks of adjBlockLen rows per span and no span past the
// last; bounds that start at 0, never decrease and end at the block's
// length; and empty rows and blocks past the population.
func checkAdjBlocks(t *testing.T, v adjView) {
	t.Helper()
	nb := (v.n + adjBlockMask) >> adjBlockShift
	if want := (nb + adjSpanMask) >> adjSpanShift; len(v.spans) != want {
		t.Fatalf("%d spans for %d rows, want %d", len(v.spans), v.n, want)
	}
	for b := 0; b < len(v.spans)<<adjSpanShift; b++ {
		off, blk := v.spans[b>>adjSpanShift][b&adjSpanMask].off, v.spans[b>>adjSpanShift][b&adjSpanMask].tgt
		if unsafe.Sizeof(v.spans[0][0]) != 64 {
			t.Fatalf("a block header takes %d bytes, not one 64-byte cache line", unsafe.Sizeof(v.spans[0][0]))
		}
		if b >= nb {
			if len(blk) != 0 || off != [adjBlockLen + 1]uint16{} {
				t.Fatalf("block %d past the %d in use: bounds %v, targets %v", b, nb, off, blk)
			}
			continue
		}
		if off[0] != 0 || int(off[adjBlockLen]) != len(blk) {
			t.Fatalf("block %d: bounds %v over %d targets", b, off, len(blk))
		}
		for i := 0; i < adjBlockLen; i++ {
			if off[i+1] < off[i] || b<<adjBlockShift+i >= v.n && off[i+1] != off[i] {
				t.Fatalf("block %d: row %d bounds %d..%d at n=%d", b, i, off[i], off[i+1], v.n)
			}
		}
	}
}

// TestInListsMatchAppendBuilt: NewIncremental fills the in-lists by
// counting sort. Each must equal the list that appending the build's
// long links one at a time, in slot order, gives: the same entries in
// the same order, in a row of roomFor its length, the list rounded up
// to a multiple of inRowRound.
func TestInListsMatchAppendBuilt(t *testing.T) {
	for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
		opts := Options{N: 1 << 12, Seed: 4, Dist: dist.NewPower(0.7), Topology: topo}
		dyn, err := NewIncremental(context.Background(), "smallworld-skewed", opts)
		if err != nil {
			t.Fatal(err)
		}
		o := dyn.(*incrementalOverlay)
		base, err := Build(context.Background(), "smallworld-skewed", opts)
		if err != nil {
			t.Fatal(err)
		}
		nw := base.(interface{ Network() *smallworld.Network }).Network()
		want := make([][]int32, nw.N())
		for u := 0; u < nw.N(); u++ {
			for _, v := range nw.LongRange(u) {
				want[v] = append(want[v], int32(u))
			}
		}
		for v, w := range want {
			got, row := o.in.list(int32(v)), o.in.Row(v)
			if room := (len(w) + inRowRound - 1) / inRowRound * inRowRound; !slices.Equal(got, w) || len(row) != room {
				t.Fatalf("%v: in-list of %d is %v (row length %d), want %v (row length %d)", topo, v, got, len(row), w, room)
			}
		}
	}
}

// TestRankChunksBuiltAtLength: NewIncremental copies every rank chunk
// at its own length, rankChunkFill entries but the last, with no room
// reserved. An insert grows an uncaptured chunk by append, and the
// first write after a capture clones the chunk at rankChunkCap.
func TestRankChunksBuiltAtLength(t *testing.T) {
	ctx := context.Background()
	dyn, err := NewIncremental(ctx, "smallworld-skewed", Options{N: 3000, Seed: 5, Dist: dist.NewPower(0.7), Topology: keyspace.Ring})
	if err != nil {
		t.Fatal(err)
	}
	o := dyn.(*incrementalOverlay)
	chunks := o.rankM.chunks
	for j, ch := range chunks {
		if cap(ch.keys) != len(ch.keys) || cap(ch.slots) != len(ch.slots) || j < len(chunks)-1 && len(ch.keys) != rankChunkFill {
			t.Fatalf("chunk %d of %d: %d keys (cap %d), %d slots (cap %d)", j, len(chunks), len(ch.keys), cap(ch.keys), len(ch.slots), cap(ch.slots))
		}
	}
	for range 2 {
		if err := o.Join(ctx); err != nil {
			t.Fatal(err)
		}
	}
	o.CaptureSnapshot()
	if err := o.Join(ctx); err != nil {
		t.Fatal(err)
	}
	p := o.posOf(int32(o.N() - 1))
	if ch := o.rankM.chunks[p.c]; cap(ch.keys) != rankChunkCap || cap(ch.slots) != rankChunkCap {
		t.Fatalf("the first write after a capture left capacities %d and %d, want %d", cap(ch.keys), cap(ch.slots), rankChunkCap)
	}
	checkIncrementalInvariants(t, o)
}

func TestIncrementalInvariantsUnderChurn(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		oname string
		opts  Options
	}{
		{"skewed-ring", "smallworld-skewed", Options{N: 96, Seed: 7, Dist: dist.NewPower(0.7), Topology: keyspace.Ring}},
		{"uniform-line", "smallworld-uniform", Options{N: 96, Seed: 8}},
		{"kleinberg", "kleinberg", Options{N: 96, Seed: 9, Topology: keyspace.Ring}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dyn, err := NewIncremental(ctx, tc.oname, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			o := dyn.(*incrementalOverlay)
			checkIncrementalInvariants(t, o)
			// A deterministic mixed churn schedule with a capture every
			// five events, so edits hit shared and owned blocks alike,
			// including leaves of the freshest slot and of slot 0
			// (rename edge cases).
			for i := 0; i < 150; i++ {
				if i%5 == 0 {
					o.CaptureSnapshot()
				}
				switch {
				case i%3 == 0:
					if err := o.Join(ctx); err != nil {
						t.Fatal(err)
					}
				case i%7 == 0:
					if err := o.Leave(ctx, 0); err != nil {
						t.Fatal(err)
					}
				case i%5 == 0:
					if err := o.Leave(ctx, o.N()-1); err != nil {
						t.Fatal(err)
					}
				default:
					if err := o.Leave(ctx, (i*37)%o.N()); err != nil {
						t.Fatal(err)
					}
				}
				checkIncrementalInvariants(t, o)
			}
			// Routing still works and terminates at the nearest peer.
			router := o.NewRouter()
			arrived := 0
			for q := 0; q < 200; q++ {
				target := keyspace.Key(float64(q) / 200)
				res := router.Route(q%o.N(), target)
				if res.Arrived {
					arrived++
				}
			}
			if frac := float64(arrived) / 200; frac < 0.99 {
				t.Fatalf("only %.0f%% of queries arrived after churn", 100*frac)
			}
		})
	}
}

// TestCompactMatchesRowByRowFold pins the row blocks to the row-by-row
// reference — every row rebuilt from key order and the in-lists, and a
// flat CSR folded from those rows one by one — at the boundaries where the
// population shrank below its starting size, grew above it, lost its
// last slot, and saw no event at all, then across a mixed churn run
// captured at irregular intervals. Each boundary also materialises the
// blocks through CSR() and checks the captured view's edge numbering
// (blockStarts/rowStart, what the obs link counters index by) against
// the fold.
func TestCompactMatchesRowByRowFold(t *testing.T) {
	ctx := context.Background()
	for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
		t.Run(topo.String(), func(t *testing.T) {
			const n0 = 200
			dyn, err := NewIncremental(ctx, "smallworld-skewed",
				Options{N: n0, Seed: 5, Dist: dist.NewPower(0.7), Topology: topo})
			if err != nil {
				t.Fatal(err)
			}
			o := dyn.(*incrementalOverlay)
			check := func(boundary string) {
				t.Helper()
				checkIncrementalInvariants(t, o)
				want := rowByRowFold(o.captureFlat().rows)
				s := o.CaptureSnapshot()
				checkAdjBlocks(t, s.adj)
				got, starts := s.CSR(), s.adj.blockStarts()
				if m := int(starts[len(starts)-1]); got.N() != want.N() || got.M() != want.M() || m != want.M() {
					t.Fatalf("%s: CSR() has N=%d M=%d (numbered M=%d), fold N=%d M=%d",
						boundary, got.N(), got.M(), m, want.N(), want.M())
				}
				for u := 0; u <= want.N(); u++ {
					if got.RowStart(u) != want.RowStart(u) {
						t.Fatalf("%s: CSR() offset %d = %d, fold %d", boundary, u, got.RowStart(u), want.RowStart(u))
					}
				}
				for u := 0; u < want.N(); u++ {
					if !slices.Equal(got.Out(u), want.Out(u)) || !slices.Equal(s.Neighbors(u), want.Out(u)) {
						t.Fatalf("%s: row %d differs from the fold", boundary, u)
					}
					if got := s.adj.rowStart(starts, u); got != want.RowStart(u) {
						t.Fatalf("%s: rowStart(%d) = %d, fold %d", boundary, u, got, want.RowStart(u))
					}
				}
			}
			leave := func(u int) {
				t.Helper()
				if err := o.Leave(ctx, u); err != nil {
					t.Fatal(err)
				}
			}
			join := func() {
				t.Helper()
				if err := o.Join(ctx); err != nil {
					t.Fatal(err)
				}
			}

			check("no events")
			for i := 0; i < 12; i++ {
				leave((i * 53) % o.N())
			}
			if o.N() >= n0 {
				t.Fatalf("population %d did not shrink below %d", o.N(), n0)
			}
			check("shrank")
			for i := 0; i < 20; i++ {
				join()
			}
			leave(0)
			if o.N() <= n0 {
				t.Fatalf("population %d did not grow above %d", o.N(), n0)
			}
			check("grew")
			leave(o.N() - 1)
			check("lost its last slot")
			check("no events after a capture")

			rng := xrand.New(17)
			for i := 0; i < 40; i++ {
				for ev := rng.Intn(9); ev >= 0; ev-- {
					if rng.Bool(0.5) {
						join()
					} else {
						leave(rng.Intn(o.N()))
					}
				}
				check("mixed churn")
			}
		})
	}
}

// rowByRowFold folds rows into a flat CSR one row at a time.
func rowByRowFold(rows [][]int32) *graph.CSR {
	offsets := make([]int32, len(rows)+1)
	var targets []int32
	for u, row := range rows {
		targets = append(targets, row...)
		offsets[u+1] = int32(len(targets))
	}
	return graph.NewCSR(offsets, targets)
}

// TestIncrementalOpsRatio pins the tentpole claim at unit-test scale:
// a membership event costs ≥50× fewer build-equivalent operations
// (placed links) than NewRebuild's full reconstruction at the same
// population.
func TestIncrementalOpsRatio(t *testing.T) {
	ctx := context.Background()
	n := 4096
	dyn, err := NewIncremental(ctx, "smallworld-skewed",
		Options{N: n, Seed: 11, Dist: dist.NewPower(0.7), Topology: keyspace.Ring})
	if err != nil {
		t.Fatal(err)
	}
	o := dyn.(*incrementalOverlay)
	const events = 64
	for i := 0; i < events; i++ {
		if i%2 == 0 {
			err = o.Join(ctx)
		} else {
			err = o.Leave(ctx, (i*131)%o.N())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	draws, placed, repairs := o.draws, o.placed, o.repairs
	k := math.Ceil(math.Log2(float64(n)))
	rebuildPlaced := float64(events) * float64(n) * k // what NewRebuild samples per trajectory
	ratio := rebuildPlaced / float64(placed)
	t.Logf("incremental: %d draws, %d placed (%d repairs) over %d events; rebuild would place %.0f — %.0fx fewer",
		draws, placed, repairs, events, rebuildPlaced, ratio)
	if ratio < 50 {
		t.Fatalf("only %.1fx fewer placed links than rebuild, want >= 50x", ratio)
	}
	// Draw attempts (including rejections) must stay O(k) per event too.
	if perEvent := float64(draws) / events; perEvent > 8*k {
		t.Fatalf("%.1f draw attempts per event, want O(log N) (= %.0f)", perEvent, k)
	}
}
