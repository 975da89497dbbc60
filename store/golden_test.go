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
		Replicas:      3,
		EventDriven:   eventDriven,
		BatchHandover: batch,
		ShardOf:       func(k keyspace.Key) int { return int(float64(k) * 4) },
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
		{"diff", false, false, goldenTrace{store.Stats{Puts: 376, AckedWrites: 376, Gets: 378, Scans: 126, Rereplicated: 545, Trimmed: 295, BytesMoved: 2286, Sweeps: 6, Transfers: 545, CrossShardMoves: 94}, 0, 0x951a49d2deaa2c32, 0xfaa06587279b1a77}},
		{"diff-batch", false, true, goldenTrace{store.Stats{Puts: 376, AckedWrites: 376, Gets: 378, Scans: 126, Rereplicated: 545, Trimmed: 295, BytesMoved: 2286, Sweeps: 6, Transfers: 86, CrossShardMoves: 94}, 0, 0x951a49d2deaa2c32, 0xfaa06587279b1a77}},
		{"event", true, false, goldenTrace{store.Stats{Puts: 376, AckedWrites: 376, Gets: 378, Scans: 126, Rereplicated: 734, Trimmed: 347, BytesMoved: 3020, Sweeps: 6, Transfers: 734, CrossShardMoves: 148}, 0, 0x3969a3726bfa8eb3, 0xce86f049419fa4f6}},
		{"event-batch", true, true, goldenTrace{store.Stats{Puts: 376, AckedWrites: 376, Gets: 378, Scans: 126, Rereplicated: 734, Trimmed: 347, BytesMoved: 3020, Sweeps: 6, Transfers: 115, CrossShardMoves: 148}, 0, 0x3969a3726bfa8eb3, 0xce86f049419fa4f6}},
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

// storeTraceBlocks drives a larger seeded workload through a diff-mode
// store: N=512 members and an 8,192-key universe, so the stored keys
// span many record blocks. Keys arrive as fresh puts in random order
// between overwrites, gets and scans (random, wrapping and near-full
// intervals). Bursts of leaves take out runs of 48 consecutive members
// at once, so every key owned inside the run loses all of its replicas
// and whole blocks of records empty; later puts refill the gaps. Sweeps
// run periodically.
func storeTraceBlocks(t *testing.T) goldenTrace {
	t.Helper()
	ctx := context.Background()
	pub, _ := newServed(t, 512, 211)
	st, err := store.New(pub, store.Config{
		Replicas: 3,
		ShardOf:  func(k keyspace.Key) int { return int(float64(k) * 64) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(4099)
	universe := dist.SampleN(dist.NewPower(0.7), rng, 8192)
	res := fnv.New64a()
	fresh := 0 // universe[:fresh] have been put at least once
	put := func(src int, k keyspace.Key, tag string) {
		digestPut(res, st.Put(src, k, []byte(tag)))
	}
	for ; fresh < 3072; fresh++ {
		put(rng.Intn(pub.LiveN()), universe[fresh], fmt.Sprintf("p%d", fresh))
	}
	for round := 0; round < 20; round++ {
		for op := 0; op < 160; op++ {
			src := rng.Intn(pub.LiveN())
			switch u := rng.Float64(); {
			case u < 0.25 && fresh < len(universe):
				put(src, universe[fresh], fmt.Sprintf("f%d", fresh))
				fresh++
			case u < 0.4:
				put(src, universe[rng.Intn(fresh)], fmt.Sprintf("r%d.%d", round, op))
			case u < 0.8:
				digestGet(res, st.Get(src, universe[rng.Intn(len(universe))]))
			default:
				lo := keyspace.Key(rng.Float64())
				var width float64
				switch rng.Intn(4) {
				case 0:
					width = 1e-3 * rng.Float64()
				case 1:
					width = 0.2 * rng.Float64()
				case 2:
					lo = keyspace.Wrap(0.98 + 0.04*rng.Float64()) // straddles the wrap
					width = 0.05 * rng.Float64()
				default:
					width = 1 - 1e-3*rng.Float64() // near-full
				}
				digestScan(res, st.Scan(src, keyspace.Interval{Lo: lo, Hi: keyspace.Wrap(float64(lo) + width)}))
			}
		}
		switch {
		case round%4 == 1:
			// A burst of 48 consecutive members with no store operation
			// in between.
			ids := append(keyspace.Points(nil), pub.Snapshot().SortedKeys()...)
			first := rng.Intn(len(ids))
			for j := 0; j < 48; j++ {
				victim := ids[(first+j)%len(ids)]
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
		case round%2 == 0:
			for i := 0; i < 16; i++ {
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
		if round%3 == 2 {
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

// TestStoreGoldenTraceBlocks pins storeTraceBlocks to values recorded
// from the store that kept its records in a hash map beside a flat
// sorted key list, before the key-ordered record blocks replaced both.
func TestStoreGoldenTraceBlocks(t *testing.T) {
	want := goldenTrace{store.Stats{Puts: 4405, AckedWrites: 4405, Gets: 1234, Scans: 633, Rereplicated: 3102, Trimmed: 2482, BytesMoved: 14922, Sweeps: 6, Transfers: 3102, CrossShardMoves: 823}, 0, 0xd909e2c6e5e3527c, 0x812d106a75f8aa3b}
	if got := storeTraceBlocks(t); got != want {
		t.Errorf("trace diverged:\n got %#v\nwant %#v", got, want)
	}
}
