package overlaynet

import (
	"context"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// TestSpliceKeepsLongLinkNeighbours churns rings and lines of 3–12
// nodes, where a long link often coincides with a key-order neighbour,
// and checks the writer's invariants after every event. It counts the
// cases only the in-lists decide: a slot whose neighbour is also its
// long link just before an event moves that neighbour on, while both
// stay live. The row must keep such a link, so a splice that judged
// "still a long link" from the row alone fails the invariants here.
func TestSpliceKeepsLongLinkNeighbours(t *testing.T) {
	ctx := context.Background()
	type pair struct{ u, x keyspace.Key } // u links x long-range; x neighbours u
	moved := 0
	for seed := uint64(1); seed <= 60; seed++ {
		for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
			name := "smallworld-skewed"
			if seed%2 == 0 {
				name = "smallworld-uniform"
			}
			dyn, err := NewIncremental(ctx, name, Options{
				N: 3 + int(seed%10), Seed: seed, Dist: dist.NewPower(0.7), Topology: topo,
			})
			if err != nil {
				t.Fatal(err)
			}
			o := dyn.(*incrementalOverlay)
			rng := xrand.New(seed)
			for ev := 0; ev < 200; ev++ {
				var both []pair
				for x := range o.N() {
					for _, u := range o.in.list(int32(x)) {
						if f := o.flanks(o.posOf(u)); f[0] == int32(x) || f[1] == int32(x) {
							both = append(both, pair{o.Key(int(u)), o.Key(x)})
						}
					}
				}
				if o.N() <= 3 || o.N() < 12 && rng.Bool(0.5) {
					err = o.Join(ctx)
				} else {
					err = o.Leave(ctx, rng.Intn(o.N()))
				}
				if err != nil {
					t.Fatal(err)
				}
				checkIncrementalInvariants(t, o)
				slot := make(map[keyspace.Key]int32, o.N())
				for u := range o.N() {
					slot[o.Key(u)] = int32(u)
				}
				for _, p := range both {
					u, uLive := slot[p.u]
					x, xLive := slot[p.x]
					if f := o.flanks(o.posOf(u)); uLive && xLive && f[0] != x && f[1] != x {
						moved++
					}
				}
			}
		}
	}
	t.Logf("%d neighbours that were also long links moved on", moved)
	if moved == 0 {
		t.Fatal("no neighbour that was also a long link moved on: the test exercises nothing")
	}
}

// FuzzIncrementalWriter drives the incremental writer with operations
// decoded from the input and checks its invariants after every one.
// Byte 0 picks the topology (bit 0: ring) and the constructor, byte 1
// sets N in 2–32 and byte 2 the seed. Every later byte b is one
// operation: b%3 == 0 joins, 1 leaves slot (b/3) mod N (an error at 2
// nodes), 2 captures a snapshot. Each snapshot is compared with the
// flat reference at capture and again after the last operation, so a
// later edit that reaches a shared block fails too. Seed corpus in
// testdata/fuzz/FuzzIncrementalWriter.
func FuzzIncrementalWriter(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ctx := context.Background()
		topo := keyspace.Line
		if data[0]&1 != 0 {
			topo = keyspace.Ring
		}
		name := [...]string{"smallworld-skewed", "smallworld-uniform", "kleinberg"}[int(data[0]>>1)%3]
		dyn, err := NewIncremental(ctx, name, Options{
			N: 2 + int(data[1])%31, Seed: uint64(data[2]), Dist: dist.NewPower(0.7), Topology: topo,
		})
		if err != nil {
			t.Fatal(err)
		}
		o := dyn.(*incrementalOverlay)
		checkIncrementalInvariants(t, o)
		type pinned struct {
			snap *Snapshot
			ref  flatCapture
		}
		var retained []pinned
		ops := data[3:]
		if len(ops) > 256 {
			ops = ops[:256]
		}
		for i, b := range ops {
			switch b % 3 {
			case 0:
				if err := o.Join(ctx); err != nil {
					t.Fatalf("op %d: join: %v", i, err)
				}
			case 1:
				n := o.N()
				if err := o.Leave(ctx, int(b/3)%n); (err != nil) != (n <= 2) {
					t.Fatalf("op %d: leave at %d nodes returned %v", i, n, err)
				}
			case 2:
				p := pinned{o.CaptureSnapshot(), o.captureFlat()}
				compareSnapshotToFlat(t, i, p.snap, p.ref)
				retained = append(retained, p)
			}
			checkIncrementalInvariants(t, o)
		}
		for i, p := range retained {
			compareSnapshotToFlat(t, -i, p.snap, p.ref)
		}
	})
}
