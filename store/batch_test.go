package store_test

import (
	"context"
	"testing"

	"smallworld/keyspace"
	"smallworld/store"
	"smallworld/xrand"
)

// TestHandoverBatching drives identical write load and churn through
// two stores over the same publisher — one shipping each handover copy
// as its own transfer, one coalescing per membership event — and pins
// the batching contract: the same copies move, so Rereplicated and
// BytesMoved agree after every round, while batching makes no more
// transfers in any round and fewer in total.
func TestHandoverBatching(t *testing.T) {
	ctx := context.Background()
	pub, _ := newServed(t, 200, 13)
	perCopy, err := store.New(pub, store.Config{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := store.New(pub, store.Config{Replicas: 3, BatchHandover: true})
	if err != nil {
		t.Fatal(err)
	}

	rng := xrand.New(271)
	for i := 0; i < 150; i++ {
		k := keyspace.Key(rng.Float64())
		src := rng.Intn(pub.LiveN())
		if a, b := perCopy.Put(src, k, valOf(k)), batched.Put(src, k, valOf(k)); a != b {
			t.Fatalf("put %v diverged before any churn: %+v vs %+v", k, a, b)
		}
	}

	for round := 0; round < 6; round++ {
		for e := 0; e < 8; e++ {
			if rng.Bool(0.5) {
				if err := pub.Join(ctx); err != nil {
					t.Fatal(err)
				}
			} else if live := pub.LiveN(); live > 64 {
				if err := pub.Leave(ctx, rng.Intn(live)); err != nil {
					t.Fatal(err)
				}
			}
		}
		pub.Publish()
		perCopy.Sweep()
		batched.Sweep()
		// Batching may not change what moves, only how it is framed.
		sa, sb := perCopy.Stats(), batched.Stats()
		if sa.Rereplicated != sb.Rereplicated || sa.BytesMoved != sb.BytesMoved {
			t.Fatalf("round %d: repair work diverged: %d vs %d key copies, %d vs %d bytes",
				round, sa.Rereplicated, sb.Rereplicated, sa.BytesMoved, sb.BytesMoved)
		}
		if sb.Transfers > sa.Transfers {
			t.Fatalf("round %d: batched store made %d transfers, per-copy %d", round, sb.Transfers, sa.Transfers)
		}
	}

	sa, sb := perCopy.Stats(), batched.Stats()
	if sa.Transfers == 0 {
		t.Fatal("churn produced no transfers; fixture too calm to test batching")
	}
	if sb.Transfers >= sa.Transfers {
		t.Fatalf("batching did not coalesce: %d transfers vs %d per-copy", sb.Transfers, sa.Transfers)
	}
	t.Logf("transfers %d -> %d, bytes %d", sa.Transfers, sb.Transfers, sa.BytesMoved)
}

// TestHandoverOverheadDefaultZero pins the compatibility contract: a
// transfer carries no framing bytes, so batching changes Transfers
// only — BytesMoved stays bit-identical to the unbatched (and to the
// pre-batching) accounting, which is what keeps E23's BytesPerChurn
// column stable across releases.
func TestHandoverOverheadDefaultZero(t *testing.T) {
	ctx := context.Background()
	pub, _ := newServed(t, 128, 77)
	plain, err := store.New(pub, store.Config{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := store.New(pub, store.Config{Replicas: 3, BatchHandover: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	for i := 0; i < 80; i++ {
		k := keyspace.Key(rng.Float64())
		plain.Put(0, k, valOf(k))
		batched.Put(0, k, valOf(k))
	}
	for e := 0; e < 20; e++ {
		if rng.Bool(0.5) {
			if err := pub.Join(ctx); err != nil {
				t.Fatal(err)
			}
		} else if live := pub.LiveN(); live > 48 {
			if err := pub.Leave(ctx, rng.Intn(live)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pub.Publish()
	plain.Sweep()
	batched.Sweep()
	if a, b := plain.Stats().BytesMoved, batched.Stats().BytesMoved; a != b {
		t.Fatalf("zero-overhead BytesMoved diverged: %d vs %d", a, b)
	}
}
