package store_test

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/store"
	"smallworld/xrand"
)

// goldenTrace is the pinned outcome of one storeTrace run.
type goldenTrace struct {
	stats   store.Stats
	backlog int
	newest  uint64 // digest of Newest over the whole key universe
	results uint64 // digest of every Put/Get/Scan result, in order
}

// storeTrace drives one seeded workload through a store: puts, gets and
// scans over a skewed key universe, interleaved with joins, single
// leaves, bursts of leaves that land between two store operations (in
// diff mode the store sees them as one multi-node departure, so only
// copies parked outside the replica sets can save some keys), and
// periodic Sweeps. It returns the final counters and digests.
func storeTrace(t *testing.T, eventDriven, batch bool) goldenTrace {
	t.Helper()
	ctx := context.Background()
	pub, _ := newServed(t, 48, 101)
	st, err := store.New(pub, store.Config{
		Replicas:              3,
		EventDriven:           eventDriven,
		BatchHandover:         batch,
		TransferOverheadBytes: 16,
		ShardOf:               func(k keyspace.Key) int { return int(float64(k) * 4) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if eventDriven {
		pub.SetOwnershipWatcher(st.ApplyChange)
	}
	rng := xrand.New(907)
	universe := dist.SampleN(dist.NewPower(0.7), rng, 240)
	for i := 0; i < 16; i++ { // an ulp-tight run: many keys in one cell
		universe = append(universe, keyspace.Key(math.Nextafter(0.5, 1)+float64(i)*1e-12))
	}
	res := fnv.New64a()
	for i, k := range universe[:160] {
		digestPut(res, st.Put(rng.Intn(pub.LiveN()), k, []byte(fmt.Sprintf("p%d", i))))
	}
	for round := 0; round < 24; round++ {
		for op := 0; op < 30; op++ {
			k := universe[rng.Intn(len(universe))]
			src := rng.Intn(pub.LiveN())
			switch u := rng.Float64(); {
			case u < 0.3:
				digestPut(res, st.Put(src, k, []byte(fmt.Sprintf("r%d.%d", round, op))))
			case u < 0.8:
				digestGet(res, st.Get(src, k))
			default:
				iv := keyspace.Interval{Lo: k, Hi: keyspace.Wrap(float64(k) + 0.3*rng.Float64())}
				digestScan(res, st.Scan(src, iv))
			}
		}
		switch {
		case round%6 == 5:
			// A burst of leaves with no store operation in between: a
			// random node, then the owner of a random key and its two
			// rank successors — that key's whole replica set.
			if err := pub.Leave(ctx, rng.Intn(pub.LiveN())); err != nil {
				t.Fatal(err)
			}
			ids := append(keyspace.Points(nil), pub.Snapshot().SortedKeys()...)
			own := keyspace.Owner(keyspace.Ring, ids, universe[rng.Intn(len(universe))])
			for j := 0; j < 3; j++ {
				victim := ids[(own+j)%len(ids)]
				slot := -1
				for u := 0; u < pub.LiveN(); u++ {
					if pub.Key(u) == victim {
						slot = u
					}
				}
				if err := pub.Leave(ctx, slot); err != nil {
					t.Fatal(err)
				}
			}
		case round%3 == 0:
			for i := 0; i < 3; i++ {
				if err := pub.Join(ctx); err != nil {
					t.Fatal(err)
				}
			}
		default:
			if err := pub.Leave(ctx, rng.Intn(pub.LiveN())); err != nil {
				t.Fatal(err)
			}
			if err := pub.Join(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if round%4 == 3 {
			st.Sweep()
		}
	}
	nw := fnv.New64a()
	for _, k := range universe {
		s, ok := st.Newest(k)
		fmt.Fprintf(nw, "%x %v %d %d;", math.Float64bits(float64(k)), ok, s.Epoch, s.Seq)
	}
	return goldenTrace{stats: st.Stats(), backlog: st.Backlog(), newest: nw.Sum64(), results: res.Sum64()}
}

func digestPut(h hash.Hash, r store.PutResult) {
	fmt.Fprintf(h, "P %v %d %d %d %d;", r.Acked, r.Stamp.Epoch, r.Stamp.Seq, r.Hops, r.Replicas)
}

func digestGet(h hash.Hash, r store.GetResult) {
	fmt.Fprintf(h, "G %v %q %d %d %d %d;", r.Found, r.Val, r.Stamp.Epoch, r.Stamp.Seq, r.Hops, r.Repaired)
}

func digestScan(h hash.Hash, r store.ScanResult) {
	fmt.Fprintf(h, "S %d %d %d", r.Hops, r.Cells, r.Repaired)
	for _, kv := range r.KVs {
		fmt.Fprintf(h, " %x %q %d %d", math.Float64bits(float64(kv.Key)), kv.Val, kv.Stamp.Epoch, kv.Stamp.Seq)
	}
	fmt.Fprint(h, ";")
}

// TestStoreGoldenTrace pins the store's observable behaviour — final
// Stats, Backlog, Newest for every key, and every operation's result —
// to values recorded from the bucket-per-member implementation the
// per-key replica records replaced. Any change to holder choice, tie
// breaking, repair order or scan order shows up here.
func TestStoreGoldenTrace(t *testing.T) {
	cases := []struct {
		name               string
		eventDriven, batch bool
		want               goldenTrace
	}{
		{"diff", false, false, goldenTrace{store.Stats{Puts: 376, AckedWrites: 376, Gets: 378, Scans: 126, Rereplicated: 545, Trimmed: 295, BytesMoved: 11006, Sweeps: 6, Transfers: 545, CrossShardMoves: 94}, 0, 0x951a49d2deaa2c32, 0xfaa06587279b1a77}},
		{"diff-batch", false, true, goldenTrace{store.Stats{Puts: 376, AckedWrites: 376, Gets: 378, Scans: 126, Rereplicated: 545, Trimmed: 295, BytesMoved: 3662, Sweeps: 6, Transfers: 86, CrossShardMoves: 94}, 0, 0x951a49d2deaa2c32, 0xfaa06587279b1a77}},
		{"event", true, false, goldenTrace{store.Stats{Puts: 376, AckedWrites: 376, Gets: 378, Scans: 126, Rereplicated: 734, Trimmed: 347, BytesMoved: 14764, Sweeps: 6, Transfers: 734, CrossShardMoves: 148}, 0, 0x3969a3726bfa8eb3, 0xce86f049419fa4f6}},
		{"event-batch", true, true, goldenTrace{store.Stats{Puts: 376, AckedWrites: 376, Gets: 378, Scans: 126, Rereplicated: 734, Trimmed: 347, BytesMoved: 4860, Sweeps: 6, Transfers: 115, CrossShardMoves: 148}, 0, 0x3969a3726bfa8eb3, 0xce86f049419fa4f6}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := storeTrace(t, c.eventDriven, c.batch)
			if got != c.want {
				t.Errorf("trace diverged:\n got %#v\nwant %#v", got, c.want)
			}
		})
	}
}
