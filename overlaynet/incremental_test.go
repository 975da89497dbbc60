package overlaynet

import (
	"context"
	"math"
	"slices"
	"sort"
	"testing"

	"smallworld/dist"
	"smallworld/graph"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// checkIncrementalInvariants verifies the full internal consistency of
// an incremental overlay: the rank index equals the one derived by
// sorting the live (unique) identifiers, neighbour pointers follow key
// order, in-lists
// mirror the long links exactly, and — most importantly — the adjacency
// every router reads (base CSR + delta rows) equals the adjacency
// recomputed from scratch. The last check is what catches a stale base
// row surviving a slot rename.
func checkIncrementalInvariants(t *testing.T, o *incrementalOverlay) {
	t.Helper()
	n := len(o.keys)
	if o.rankM.Len() != n || len(o.long) != n || len(o.in) != n {
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
	// The routed adjacency equals the adjacency recomputed from state.
	for u := 0; u < n; u++ {
		var want []int32
		if o.pred[u] >= 0 {
			want = append(want, o.pred[u])
		}
		if o.succ[u] >= 0 {
			want = append(want, o.succ[u])
		}
		want = append(want, o.long[u]...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		dedup := want[:0]
		for i, v := range want {
			if i == 0 || v != dedup[len(dedup)-1] {
				dedup = append(dedup, v)
			}
		}
		got := o.Neighbors(u)
		if len(got) != len(dedup) {
			t.Fatalf("slot %d row %v, want %v", u, got, dedup)
		}
		for i := range got {
			if got[i] != dedup[i] {
				t.Fatalf("slot %d row %v, want %v", u, got, dedup)
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
			o.compact = 5 // exercise compaction boundaries often
			checkIncrementalInvariants(t, o)
			// A deterministic mixed churn schedule crossing several
			// compactions, including leaves of the freshest slot and of
			// slot 0 (rename edge cases).
			for i := 0; i < 150; i++ {
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

// compactRowByRow is the row-by-row delta fold that compactNow's
// one-pass fold replaced, kept as its reference: every row read through
// Neighbors, one delta lookup per row. It leaves the overlay untouched.
func (o *incrementalOverlay) compactRowByRow() *graph.CSR {
	n := len(o.keys)
	offsets := make([]int32, n+1)
	size := 0
	for u := 0; u < n; u++ {
		size += len(o.Neighbors(u))
	}
	targets := make([]int32, 0, size)
	for u := 0; u < n; u++ {
		targets = append(targets, o.Neighbors(u)...)
		offsets[u+1] = int32(len(targets))
	}
	return graph.NewCSR(offsets, targets)
}

// TestCompactMatchesRowByRowFold pins compactNow to the row-by-row
// reference fold — identical offsets and targets — at compaction
// boundaries where the population shrank below the base CSR's N, grew
// above it, lost its last slot, and had an empty delta, then across a
// mixed churn run compacted at irregular intervals.
func TestCompactMatchesRowByRowFold(t *testing.T) {
	ctx := context.Background()
	for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
		t.Run(topo.String(), func(t *testing.T) {
			dyn, err := NewIncremental(ctx, "smallworld-skewed",
				Options{N: 200, Seed: 5, Dist: dist.NewPower(0.7), Topology: topo})
			if err != nil {
				t.Fatal(err)
			}
			o := dyn.(*incrementalOverlay)
			o.compact = math.MaxInt // compact only where the test does
			fold := func(boundary string) {
				t.Helper()
				want := o.compactRowByRow()
				o.compactNow()
				got := o.csr
				if got.N() != want.N() || !slices.Equal(got.Rows(0, got.N()), want.Rows(0, want.N())) {
					t.Fatalf("%s: targets differ from the row-by-row fold", boundary)
				}
				for u := 0; u <= got.N(); u++ {
					if got.RowStart(u) != want.RowStart(u) {
						t.Fatalf("%s: offset %d = %d, want %d", boundary, u, got.RowStart(u), want.RowStart(u))
					}
				}
				if len(o.delta) != 0 {
					t.Fatalf("%s: %d delta rows survive the fold", boundary, len(o.delta))
				}
				checkIncrementalInvariants(t, o)
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

			fold("empty delta")
			for i := 0; i < 12; i++ {
				leave((i * 53) % o.N())
			}
			if o.N() >= o.csr.N() {
				t.Fatalf("population %d did not shrink below the base's %d", o.N(), o.csr.N())
			}
			fold("shrank")
			for i := 0; i < 20; i++ {
				join()
			}
			leave(0)
			if o.N() <= o.csr.N() {
				t.Fatalf("population %d did not grow above the base's %d", o.N(), o.csr.N())
			}
			fold("grew")
			leave(o.N() - 1)
			fold("lost its last slot")
			fold("empty delta after a fold")

			rng := xrand.New(17)
			for i := 0; i < 40; i++ {
				for ev := rng.Intn(9); ev >= 0; ev-- {
					if rng.Bool(0.5) {
						join()
					} else {
						leave(rng.Intn(o.N()))
					}
				}
				fold("mixed churn")
			}
		})
	}
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
