package store_test

import (
	"context"
	"fmt"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/overlaynet"
	"smallworld/store"
	"smallworld/xrand"
)

// newServed builds an incremental ring overlay behind a per-event
// Publisher — the store's natural habitat.
func newServed(t testing.TB, n int, seed uint64) (*overlaynet.Publisher, overlaynet.Dynamic) {
	t.Helper()
	return servedOn(t, keyspace.Ring, n, seed)
}

// servedOn is newServed on a chosen topology.
func servedOn(t testing.TB, topo keyspace.Topology, n int, seed uint64) (*overlaynet.Publisher, overlaynet.Dynamic) {
	t.Helper()
	dyn, err := overlaynet.NewIncremental(context.Background(), "smallworld-skewed",
		overlaynet.Options{N: n, Seed: seed, Dist: dist.NewPower(0.7), Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := overlaynet.NewPublisher(dyn, overlaynet.PublishEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	return pub, dyn
}

func valOf(k keyspace.Key) []byte {
	return []byte(fmt.Sprintf("v:%.12f", float64(k)))
}

func TestStorePutGetRoundTrip(t *testing.T) {
	pub, _ := newServed(t, 64, 1)
	st, err := store.New(pub, store.Config{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(7)
	keys := make([]keyspace.Key, 0, 100)
	for i := 0; i < 100; i++ {
		k := keyspace.Key(r.Float64())
		keys = append(keys, k)
		res := st.Put(r.Intn(pub.LiveN()), k, valOf(k))
		if !res.Acked {
			t.Fatalf("put %v not acked", k)
		}
		if res.Replicas != 3 {
			t.Fatalf("put %v wrote %d replicas, want 3", k, res.Replicas)
		}
	}
	for _, k := range keys {
		res := st.Get(r.Intn(pub.LiveN()), k)
		if !res.Found {
			t.Fatalf("get %v: not found", k)
		}
		if string(res.Val) != string(valOf(k)) {
			t.Fatalf("get %v: wrong value %q", k, res.Val)
		}
	}
	if got := st.Get(0, keyspace.Key(0.123456789)); got.Found {
		t.Fatalf("get of never-written key found %q", got.Val)
	}
	if b := st.Backlog(); b != 0 {
		t.Fatalf("backlog %d after clean puts, want 0", b)
	}
}

func TestStoreStampsMonotonePerKey(t *testing.T) {
	pub, _ := newServed(t, 32, 2)
	st, err := store.New(pub, store.Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	k := keyspace.Key(0.42)
	var prev store.Stamp
	for i := 0; i < 10; i++ {
		res := st.Put(0, k, []byte{byte(i)})
		if i > 0 && !prev.Less(res.Stamp) {
			t.Fatalf("write %d stamp %v not after %v", i, res.Stamp, prev)
		}
		prev = res.Stamp
	}
	got := st.Get(1, k)
	if !got.Found || got.Val[0] != 9 {
		t.Fatalf("newest read = %v %q, want the 10th write", got.Found, got.Val)
	}
	if got.Stamp != prev {
		t.Fatalf("read stamp %v, want %v", got.Stamp, prev)
	}
}

func TestStoreScanAscendingAcrossWrap(t *testing.T) {
	pub, _ := newServed(t, 96, 3)
	st, err := store.New(pub, store.Config{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(11)
	written := make(map[keyspace.Key]bool)
	for i := 0; i < 400; i++ {
		k := keyspace.Key(r.Float64())
		st.Put(0, k, valOf(k))
		written[k] = true
	}
	for trial := 0; trial < 50; trial++ {
		lo := keyspace.Wrap(0.9 + 0.2*r.Float64())
		iv := keyspace.Interval{Lo: lo, Hi: keyspace.Wrap(float64(lo) + 0.25)}
		res := st.Scan(r.Intn(pub.LiveN()), iv)
		want := 0
		for k := range written {
			if iv.Contains(k) {
				want++
			}
		}
		if len(res.KVs) != want {
			t.Fatalf("scan %v returned %d keys, oracle says %d", iv, len(res.KVs), want)
		}
		prev := -1.0
		for i, kv := range res.KVs {
			if !iv.Contains(kv.Key) {
				t.Fatalf("scan %v returned out-of-range key %v", iv, kv.Key)
			}
			if string(kv.Val) != string(valOf(kv.Key)) {
				t.Fatalf("scan %v: key %v has wrong value %q", iv, kv.Key, kv.Val)
			}
			d := float64(keyspace.Wrap(float64(kv.Key) - float64(iv.Lo)))
			if d <= prev {
				t.Fatalf("scan %v: key %v at arc %v not ascending after %v (pos %d)", iv, kv.Key, d, prev, i)
			}
			prev = d
		}
	}
}

// TestStoreHandoverEventDriven drives churn through a Publisher with
// the ownership watcher wired to the store: every acknowledged write
// must survive every single leave (R=3 tolerates the one-at-a-time
// crashes the overlay produces), and re-replication must leave no
// backlog once the churn stops.
func TestStoreHandoverEventDriven(t *testing.T) {
	pub, _ := newServed(t, 64, 4)
	st, err := store.New(pub, store.Config{Replicas: 3, EventDriven: true})
	if err != nil {
		t.Fatal(err)
	}
	pub.SetOwnershipWatcher(st.ApplyChange)
	ctx := context.Background()
	r := xrand.New(17)
	acked := make(map[keyspace.Key]store.Stamp)
	for i := 0; i < 300; i++ {
		k := keyspace.Key(r.Float64())
		if res := st.Put(r.Intn(pub.LiveN()), k, valOf(k)); res.Acked {
			acked[k] = res.Stamp
		}
		switch {
		case i%3 == 0:
			if err := pub.Join(ctx); err != nil {
				t.Fatal(err)
			}
		case i%2 == 0 && pub.LiveN() > 8:
			if err := pub.Leave(ctx, r.Intn(pub.LiveN())); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k, want := range acked {
		got, ok := st.Newest(k)
		if !ok || got.Less(want) {
			t.Fatalf("acked write %v (stamp %v) lost: newest %v (found %v)", k, want, got, ok)
		}
	}
	if b := st.Backlog(); b != 0 {
		t.Fatalf("backlog %d after event-driven churn, want 0 (handover repairs synchronously)", b)
	}
}

// TestStoreHandoverDiffSync exercises the default snapshot-diff mode:
// no watcher, one membership event per publication, and a store
// operation (which syncs) after each event.
func TestStoreHandoverDiffSync(t *testing.T) {
	pub, _ := newServed(t, 64, 5)
	st, err := store.New(pub, store.Config{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := xrand.New(23)
	acked := make(map[keyspace.Key]store.Stamp)
	for i := 0; i < 300; i++ {
		k := keyspace.Key(r.Float64())
		if res := st.Put(r.Intn(pub.LiveN()), k, valOf(k)); res.Acked {
			acked[k] = res.Stamp
		}
		switch {
		case i%3 == 0:
			if err := pub.Join(ctx); err != nil {
				t.Fatal(err)
			}
		case i%2 == 0 && pub.LiveN() > 8:
			if err := pub.Leave(ctx, r.Intn(pub.LiveN())); err != nil {
				t.Fatal(err)
			}
		}
		st.Sync() // reconcile before the next event can crash another node
	}
	for k, want := range acked {
		got, ok := st.Newest(k)
		if !ok || got.Less(want) {
			t.Fatalf("acked write %v (stamp %v) lost: newest %v (found %v)", k, want, got, ok)
		}
	}
	if b := st.Backlog(); b != 0 {
		t.Fatalf("backlog %d after diff-sync churn, want 0", b)
	}
}

// TestStoreSweepTrimsStrays pins the anti-entropy contract: after
// churn moves ownership around, a Sweep restores full replication AND
// removes copies parked outside each key's replica set, so the total
// copy count is exactly min(R, N) per key.
func TestStoreSweepTrimsStrays(t *testing.T) {
	pub, _ := newServed(t, 48, 6)
	st, err := store.New(pub, store.Config{Replicas: 3, EventDriven: true})
	if err != nil {
		t.Fatal(err)
	}
	pub.SetOwnershipWatcher(st.ApplyChange)
	ctx := context.Background()
	r := xrand.New(31)
	var keys []keyspace.Key
	for i := 0; i < 100; i++ {
		k := keyspace.Key(r.Float64())
		keys = append(keys, k)
		st.Put(0, k, valOf(k))
	}
	// Joins shift replica sets downstream without crashing anyone, so
	// stray copies accumulate on former replicas.
	for i := 0; i < 40; i++ {
		if err := pub.Join(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st.Sweep()
	if b := st.Backlog(); b != 0 {
		t.Fatalf("backlog %d after sweep, want 0", b)
	}
	before := st.Stats()
	if before.Trimmed == 0 {
		t.Fatal("sweep trimmed nothing; joins should strand stray copies")
	}
	// A second sweep finds nothing to do.
	st.Sweep()
	after := st.Stats()
	if after.Trimmed != before.Trimmed || after.Rereplicated != before.Rereplicated {
		t.Fatalf("second sweep still moved data: %+v -> %+v", before, after)
	}
	for _, k := range keys {
		if got := st.Get(0, k); !got.Found || string(got.Val) != string(valOf(k)) {
			t.Fatalf("key %v wrong after sweep: %v %q", k, got.Found, got.Val)
		}
	}
}

// TestStoreSmallPopulations covers N <= R: every member holds every
// key, and drains down to the overlay's 2-node floor lose nothing.
func TestStoreSmallPopulations(t *testing.T) {
	pub, _ := newServed(t, 4, 7)
	st, err := store.New(pub, store.Config{Replicas: 3, EventDriven: true})
	if err != nil {
		t.Fatal(err)
	}
	pub.SetOwnershipWatcher(st.ApplyChange)
	ctx := context.Background()
	var stamps []store.Stamp
	keys := []keyspace.Key{0.1, 0.35, 0.6, 0.85}
	for _, k := range keys {
		res := st.Put(0, k, valOf(k))
		if !res.Acked {
			t.Fatalf("put %v not acked", k)
		}
		stamps = append(stamps, res.Stamp)
	}
	// Drain to 2 nodes, then regrow.
	for pub.LiveN() > 2 {
		if err := pub.Leave(ctx, pub.LiveN()-1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := pub.Join(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		got, ok := st.Newest(k)
		if !ok || got.Less(stamps[i]) {
			t.Fatalf("key %v lost through drain/refill: %v %v", k, ok, got)
		}
		if res := st.Get(0, k); !res.Found || string(res.Val) != string(valOf(k)) {
			t.Fatalf("key %v wrong after drain/refill", k)
		}
	}
}

// TestStoreScanUnderCrash pins the scan read path against a
// freshly-crashed owner: with the owner's bucket gone but survivors
// holding replicas, a scan still returns every key.
func TestStoreScanUnderCrash(t *testing.T) {
	pub, _ := newServed(t, 64, 8)
	st, err := store.New(pub, store.Config{Replicas: 3, EventDriven: true})
	if err != nil {
		t.Fatal(err)
	}
	pub.SetOwnershipWatcher(st.ApplyChange)
	ctx := context.Background()
	r := xrand.New(41)
	written := make(map[keyspace.Key]bool)
	for i := 0; i < 200; i++ {
		k := keyspace.Key(r.Float64())
		st.Put(0, k, valOf(k))
		written[k] = true
	}
	for i := 0; i < 30; i++ {
		if err := pub.Leave(ctx, r.Intn(pub.LiveN())); err != nil {
			t.Fatal(err)
		}
		iv := keyspace.Interval{Lo: keyspace.Key(r.Float64())}
		iv.Hi = keyspace.Wrap(float64(iv.Lo) + 0.15)
		res := st.Scan(r.Intn(pub.LiveN()), iv)
		want := 0
		for k := range written {
			if iv.Contains(k) {
				want++
			}
		}
		if len(res.KVs) != want {
			t.Fatalf("after crash %d: scan %v returned %d keys, oracle says %d", i, iv, len(res.KVs), want)
		}
	}
}
