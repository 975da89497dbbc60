package overlaynet

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

func newTestPublisher(t *testing.T, n int, opts ...PublisherOption) *Publisher {
	t.Helper()
	dyn, err := NewIncremental(context.Background(), "smallworld-skewed", Options{
		N: n, Seed: 11, Dist: dist.NewPower(0.7), Topology: keyspace.Ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(dyn, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// checkSnapshotIntact verifies a snapshot is internally consistent — no
// torn view: every array agrees on N, the rank index is a sorted
// permutation, and every adjacency target is in range.
func checkSnapshotIntact(t *testing.T, s *Snapshot) {
	t.Helper()
	n := s.keys.n
	if s.adj.n != n || s.rank.n != n {
		t.Fatalf("torn snapshot: keys %d, rows %d, rank %d",
			n, s.adj.n, s.rank.n)
	}
	byKey := s.rank.materializeKeys()
	order := s.rank.materializeSlots()
	seen := make(map[int32]bool, n)
	for rank, id := range order {
		if id < 0 || int(id) >= n || seen[id] {
			t.Fatalf("rank index corrupt at %d: slot %d", rank, id)
		}
		seen[id] = true
		if s.keys.At(int(id)) != byKey[rank] {
			t.Fatalf("rank %d: byKey %v != keys[%d] %v", rank, byKey[rank], id, s.keys.At(int(id)))
		}
		if rank > 0 && byKey[rank] < byKey[rank-1] {
			t.Fatalf("rank index not sorted at %d", rank)
		}
		if s.rank.KeyAt(rank) != byKey[rank] || s.rank.SlotAt(rank) != id {
			t.Fatalf("rank view disagrees with its own materialization at %d", rank)
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range s.Neighbors(u) {
			if v < 0 || int(v) >= n {
				t.Fatalf("node %d: neighbour %d out of range [0,%d)", u, v, n)
			}
		}
	}
}

func TestPublisherFirstEpochMatchesOverlay(t *testing.T) {
	pub := newTestPublisher(t, 256)
	snap := pub.Snapshot()
	if snap.Epoch() != 1 {
		t.Fatalf("first epoch = %d, want 1", snap.Epoch())
	}
	checkSnapshotIntact(t, snap)
	// The snapshot must be bit-identical to the wrapped overlay's state.
	dyn := pub.dyn
	if snap.N() != dyn.N() {
		t.Fatalf("snapshot N %d != overlay N %d", snap.N(), dyn.N())
	}
	for u := 0; u < snap.N(); u++ {
		if snap.Key(u) != dyn.Key(u) {
			t.Fatalf("key mismatch at %d", u)
		}
		row, live := snap.Neighbors(u), dyn.Neighbors(u)
		if len(row) != len(live) {
			t.Fatalf("row %d: %d vs %d targets", u, len(row), len(live))
		}
		for i := range row {
			if row[i] != live[i] {
				t.Fatalf("row %d differs at %d", u, i)
			}
		}
	}
	// Routing through the snapshot agrees with the live overlay router.
	sr := snap.NewRouter()
	lr := dyn.NewRouter()
	rng := xrand.New(5)
	for i := 0; i < 500; i++ {
		src := rng.Intn(snap.N())
		target := snap.Key(rng.Intn(snap.N()))
		a, b := sr.Route(src, target), lr.Route(src, target)
		if a.Dest != b.Dest || a.Hops != b.Hops || a.Arrived != b.Arrived {
			t.Fatalf("route %d->%v: snapshot %+v vs live %+v", src, target, a, b)
		}
	}
}

func TestPublisherEpochBoundary(t *testing.T) {
	ctx := context.Background()
	pub := newTestPublisher(t, 64, PublishEvery(8))
	if pub.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", pub.Epoch())
	}
	old := pub.Snapshot()
	for i := 0; i < 7; i++ {
		if err := pub.Join(ctx); err != nil {
			t.Fatal(err)
		}
		if pub.Snapshot() != old {
			t.Fatalf("snapshot republished before the boundary (event %d)", i+1)
		}
	}
	if err := pub.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if pub.Epoch() != 2 {
		t.Fatalf("epoch after 8 events = %d, want 2", pub.Epoch())
	}
	if pub.Snapshot().N() != 64+8 {
		t.Fatalf("published N = %d, want 72", pub.Snapshot().N())
	}
	// The old snapshot is untouched by the new epoch: still intact,
	// still at the old population.
	checkSnapshotIntact(t, old)
	if old.N() != 64 {
		t.Fatalf("old snapshot N changed to %d", old.N())
	}
	// Publish forces a boundary mid-cycle.
	if err := pub.Leave(ctx, 0); err != nil {
		t.Fatal(err)
	}
	forced := pub.Publish()
	if forced.Epoch() != 3 || forced.N() != 64+8-1 {
		t.Fatalf("forced publish: epoch %d N %d", forced.Epoch(), forced.N())
	}
}

// TestPublisherConcurrentServing is the contract test the tentpole is
// about: readers route lock-free against published snapshots while the
// writer applies churn. Run under -race this proves the read path is
// synchronisation-free and tear-free.
func TestPublisherConcurrentServing(t *testing.T) {
	ctx := context.Background()
	pub := newTestPublisher(t, 512, PublishEvery(16))
	const readers = 4
	var stop atomic.Bool
	var routed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			snap := pub.Snapshot()
			router := snap.NewRouter().(*SnapshotRouter)
			for !stop.Load() {
				for i := 0; i < 64; i++ {
					src := rng.Intn(snap.N())
					res := router.Route(src, keyspace.Key(rng.Float64()))
					if !res.Arrived {
						// Cannot happen: src and snapshot share an epoch
						// and neighbour edges are intact.
						t.Errorf("query failed at epoch %d", snap.Epoch())
						return
					}
					routed.Add(1)
				}
				snap = pub.Snapshot()
				router.Rebind(snap)
			}
		}(uint64(w) + 100)
	}
	rng := xrand.New(3)
	for i := 0; i < 400; i++ {
		var err error
		if rng.Bool(0.5) {
			err = pub.Join(ctx)
		} else if n := pub.LiveN(); n > 8 {
			err = pub.Leave(ctx, rng.Intn(n))
		}
		if err != nil {
			t.Errorf("churn event %d: %v", i, err)
			break
		}
	}
	// On a single-proc scheduler the writer loop can finish before any
	// reader ran; keep serving until every reader demonstrably routed
	// against the final epochs.
	for deadline := time.Now().Add(5 * time.Second); routed.Load() < readers*64; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if routed.Load() == 0 {
		t.Fatal("no queries routed")
	}
	checkSnapshotIntact(t, pub.Snapshot())
	if pub.Epoch() < 2 {
		t.Fatalf("epoch %d after 400 events with boundary 16", pub.Epoch())
	}
}

// TestQueryRunnerServingMode pins one snapshot per batch: a batch
// launched against epoch e routes every query on epoch e even when the
// publisher advances mid-batch.
func TestQueryRunnerServingMode(t *testing.T) {
	ctx := context.Background()
	pub := newTestPublisher(t, 256, PublishEvery(1))
	qr := NewQueryRunner(pub, withWorkers(2))
	qs := RandomPairs(pub, 7, 2000)
	batch, err := qr.Run(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Arrived != len(qs) {
		t.Fatalf("%d/%d arrived on a healthy snapshot", batch.Arrived, len(qs))
	}
	// Workers must hold SnapshotRouters pinned to one epoch.
	pinned := qr.routers[0].(*SnapshotRouter).Pinned()
	for w := range qr.routers {
		if qr.routers[w].(*SnapshotRouter).Pinned() != pinned {
			t.Fatal("workers pinned to different snapshots within one batch")
		}
	}
	// Churn past the old population, then rerun: the runner re-pins to
	// the newest epoch and keeps serving.
	for i := 0; i < 32; i++ {
		if err := pub.Join(ctx); err != nil {
			t.Fatal(err)
		}
	}
	batch, err = qr.Run(ctx, RandomPairs(pub, 8, 500))
	if err != nil {
		t.Fatal(err)
	}
	if qr.routers[0].(*SnapshotRouter).Pinned() == pinned {
		t.Fatal("batch after churn still pinned to the old epoch")
	}
	if batch.Arrived != 500 {
		t.Fatalf("%d/500 arrived after re-pin", batch.Arrived)
	}
}

// TestSnapshotRouterStaleSource: a source index beyond the pinned
// snapshot's population fails cleanly instead of routing from an
// arbitrary slot.
func TestSnapshotRouterStaleSource(t *testing.T) {
	pub := newTestPublisher(t, 64)
	snap := pub.Snapshot()
	r := snap.NewRouter()
	res := r.Route(snap.N()+3, 0.5)
	if res.Arrived || res.Dest != -1 || res.Hops != 0 {
		t.Fatalf("stale source routed: %+v", res)
	}
}

// TestNewSnapshotGenericCapture covers the row-by-row fallback for
// overlays without a Snapshotter fast path (here: chord, ring-native).
func TestNewSnapshotGenericCapture(t *testing.T) {
	ov, err := Build(context.Background(), "chord", Options{N: 128, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	snap := NewSnapshot(ov)
	checkSnapshotIntact(t, snap)
	if snap.Topology() != keyspace.Ring {
		t.Fatalf("generic capture topology = %v, want ring", snap.Topology())
	}
	if snap.Kind() != ov.Kind() || snap.N() != ov.N() {
		t.Fatalf("capture mismatch: %s/%d vs %s/%d", snap.Kind(), snap.N(), ov.Kind(), ov.N())
	}
	for u := 0; u < snap.N(); u++ {
		row, live := snap.Neighbors(u), ov.Neighbors(u)
		if len(row) != len(live) {
			t.Fatalf("row %d: %d vs %d", u, len(row), len(live))
		}
		for i := range row {
			if row[i] != live[i] {
				t.Fatalf("row %d differs at %d", u, i)
			}
		}
	}
	// Responsible agrees with the rank index.
	rng := xrand.New(2)
	for i := 0; i < 200; i++ {
		k := keyspace.Key(rng.Float64())
		resp := snap.Responsible(k)
		best, bestD := -1, 2.0
		for u := 0; u < snap.N(); u++ {
			if d := keyspace.Ring.Distance(snap.Key(u), k); d < bestD {
				best, bestD = u, d
			}
		}
		if keyspace.Ring.Distance(snap.Key(resp), k) != bestD {
			t.Fatalf("Responsible(%v) = %d (d=%v), nearest %d (d=%v)",
				k, resp, keyspace.Ring.Distance(snap.Key(resp), k), best, bestD)
		}
	}
}

// TestPublisherOverDirectionalDHT: a rebuild-wrapped Chord overlay
// routes with Chord's own clockwise-finger semantics through the
// snapshot's retained generation — the generic distance-greedy CSR
// router would strand every counter-clockwise query. Old epochs keep
// routing their own (replaced, immutable) generation after churn.
func TestPublisherOverDirectionalDHT(t *testing.T) {
	ctx := context.Background()
	dyn, err := NewRebuild(ctx, "chord", Options{N: 128, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(dyn, PublishEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	old := pub.Snapshot()
	router := old.NewRouter()
	rng := xrand.New(8)
	for i := 0; i < 300; i++ {
		res := router.Route(rng.Intn(old.N()), old.Key(rng.Intn(old.N())))
		if !res.Arrived {
			t.Fatalf("chord snapshot query %d stranded: %+v", i, res)
		}
	}
	for i := 0; i < 4; i++ {
		if err := pub.Join(ctx); err != nil {
			t.Fatal(err)
		}
	}
	fresh := pub.Snapshot()
	if fresh == old || fresh.N() != 132 {
		t.Fatalf("epoch did not advance: N=%d", fresh.N())
	}
	// Both epochs remain routable: the old one on its retained
	// generation, the new one after a Rebind.
	if res := router.Route(0, old.Key(64)); !res.Arrived {
		t.Fatal("old epoch stopped routing after churn")
	}
	router.(*SnapshotRouter).Rebind(fresh)
	arrived := 0
	for i := 0; i < 300; i++ {
		if router.Route(rng.Intn(fresh.N()), fresh.Key(rng.Intn(fresh.N()))).Arrived {
			arrived++
		}
	}
	if arrived != 300 {
		t.Fatalf("%d/300 arrived on the new epoch", arrived)
	}
	if fresh.Kind() != "rebuild:chord" {
		t.Fatalf("kind = %q", fresh.Kind())
	}
}

// TestIncrementalCaptureSharesRowBlocks: a capture shares every span
// of row blocks with the writer instead of copying it; the writer's
// next edit clones only the spans and blocks it touches, never writing
// one a snapshot holds; and a second capture shares the untouched
// blocks with the first.
func TestIncrementalCaptureSharesRowBlocks(t *testing.T) {
	ctx := context.Background()
	dyn, err := NewIncremental(ctx, "smallworld-skewed", Options{
		N: 1 << 13, Seed: 4, Dist: dist.NewPower(0.7), Topology: keyspace.Ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	inc := dyn.(*incrementalOverlay)
	snap := inc.CaptureSnapshot()
	for s := range snap.adj.spans {
		if &snap.adj.spans[s][0] != &inc.adj.spans[s][0] {
			t.Fatalf("capture copied span %d", s)
		}
	}
	nb := (snap.N() + adjBlockMask) >> adjBlockShift
	block := func(s *Snapshot, b int) []int32 { return s.adj.block(b << adjBlockShift).tgt }
	before := make([][]int32, nb)
	for b := range before {
		before[b] = slices.Clone(block(snap, b))
	}
	if err := dyn.Join(ctx); err != nil {
		t.Fatal(err)
	}
	snap2 := inc.CaptureSnapshot()
	checkSnapshotIntact(t, snap2)
	checkSnapshotIntact(t, snap)
	if snap2.N() != 1<<13+1 || snap.N() != 1<<13 {
		t.Fatalf("capture Ns: %d then %d", snap.N(), snap2.N())
	}
	cloned := 0
	for b := range before {
		if !slices.Equal(block(snap, b), before[b]) {
			t.Fatalf("the join wrote block %d of the earlier snapshot", b)
		}
		if &block(snap, b)[0] != &block(snap2, b)[0] {
			cloned++
		}
	}
	// A join edits the newcomer's row, its two flanks and the handed-over
	// in-links: a handful of blocks; the rest stay shared.
	if cloned == 0 || cloned > nb/8 {
		t.Fatalf("a join cloned %d of %d blocks", cloned, nb)
	}
}
