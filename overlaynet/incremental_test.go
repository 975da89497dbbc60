package overlaynet

import (
	"context"
	"math"
	"slices"
	"testing"
	"unsafe"

	"smallworld/dist"
	"smallworld/graph"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// checkIncrementalInvariants verifies the full internal consistency of
// an incremental overlay: the rank index equals the one derived by
// sorting the live (unique) identifiers, neighbour pointers follow key
// order, in-lists mirror the long links exactly, the row blocks are
// well formed, and — most importantly — every row the routers read
// equals the row recomputed from scratch. The last check is what
// catches a stale row surviving a slot rename.
func checkIncrementalInvariants(t *testing.T, o *incrementalOverlay) {
	t.Helper()
	n := len(o.keys)
	if o.rankM.Len() != n || len(o.long) != n || len(o.in) != n || o.adj.n != n {
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
		wantPred, wantSucc := int32(-1), int32(-1)
		if o.topo == keyspace.Ring && n > 1 {
			wantPred = ref.order[(rank-1+n)%n]
			wantSucc = ref.order[(rank+1)%n]
		} else {
			if rank > 0 {
				wantPred = ref.order[rank-1]
			}
			if rank+1 < n {
				wantSucc = ref.order[rank+1]
			}
		}
		if o.pred[id] != wantPred || o.succ[id] != wantSucc {
			t.Fatalf("slot %d (rank %d): pred/succ = %d/%d, want %d/%d",
				id, rank, o.pred[id], o.succ[id], wantPred, wantSucc)
		}
	}
	// in-lists mirror long links.
	inCount := make(map[[2]int32]int)
	for u, links := range o.long {
		for _, v := range links {
			if int(v) == u || v < 0 || int(v) >= n {
				t.Fatalf("slot %d holds invalid link %d at n=%d", u, v, n)
			}
			inCount[[2]int32{v, int32(u)}]++
		}
	}
	for v, ins := range o.in {
		for _, u := range ins {
			key := [2]int32{int32(v), u}
			inCount[key]--
			if inCount[key] < 0 {
				t.Fatalf("in-list of %d mentions %d more often than %d links to it", v, u, u)
			}
		}
	}
	for key, c := range inCount {
		if c != 0 {
			t.Fatalf("link %d->%d missing from the in-list (count %d)", key[1], key[0], c)
		}
	}
	if len(o.adj.shared) != len(o.adj.spans) || len(o.adj.spanShared) != len(o.adj.spans) {
		t.Fatalf("%d/%d sharing flags for %d spans", len(o.adj.spanShared), len(o.adj.shared), len(o.adj.spans))
	}
	checkAdjBlocks(t, o.adj.adjView)
	// The routed adjacency equals the adjacency recomputed from state.
	for u := 0; u < n; u++ {
		if got, want := o.Neighbors(u), ref.rows[u]; !slices.Equal(got, want) {
			t.Fatalf("slot %d row %v, want %v", u, got, want)
		}
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
// reference — every row rebuilt from pred/succ/long, and a flat CSR
// folded from those rows one by one — at the boundaries where the
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
	draws, placed, repairs := o.Ops()
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
