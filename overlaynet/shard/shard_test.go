package shard

import (
	"context"
	"testing"
	"time"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/obs"
	"smallworld/overlaynet"
	"smallworld/wire"
	"smallworld/xrand"
)

func newChurnPublisher(t testing.TB, n int, topo keyspace.Topology, seed uint64) *overlaynet.Publisher {
	t.Helper()
	dyn, err := overlaynet.NewIncremental(context.Background(), "smallworld-skewed", overlaynet.Options{
		N: n, Seed: seed, Dist: dist.NewPower(0.7), Topology: topo,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := overlaynet.NewPublisher(dyn, overlaynet.PublishEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// expectedCrossings replays the walk with GreedyStep and counts
// ownership transitions — the oracle for Client.Crossings.
func expectedCrossings(snap *overlaynet.Snapshot, m *Map, src int, target keyspace.Key) int {
	d, ok := snap.GreedyInit(src, target)
	if !ok {
		return 0
	}
	cur, crossings := src, 0
	for hops := 0; hops < snap.GreedyGuard(); {
		next, dNext := snap.GreedyStep(cur, d, target)
		if next == -1 {
			break
		}
		hops++
		if m.Of(snap.Key(next)) != m.Of(snap.Key(cur)) {
			crossings++
		}
		cur, d = next, dNext
	}
	return crossings
}

// TestShardBitIdentity is the headline invariant: a K-shard cluster
// over the channel wire produces bit-identical routes (dest, hops,
// arrival) to the monolithic in-process SnapshotRouter on the same
// snapshot, across churn and rebinds, for K in {1, 2, 4, 8} — sharding
// changes where work executes, never what is computed.
func TestShardBitIdentity(t *testing.T) {
	for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
		for _, k := range []int{1, 2, 4, 8} {
			t.Run(topoName(topo)+"/K="+itoa(k), func(t *testing.T) {
				ctx := context.Background()
				pub := newChurnPublisher(t, 300, topo, 23)
				cluster, err := New(pub, Config{Shards: k})
				if err != nil {
					t.Fatal(err)
				}
				defer cluster.Close()
				client, err := cluster.NewClient()
				if err != nil {
					t.Fatal(err)
				}
				snap := pub.Snapshot()
				mono := snap.NewRouter().(*overlaynet.SnapshotRouter)

				rng := xrand.New(91)
				for round := 0; round < 6; round++ {
					n := snap.N()
					for q := 0; q < 300; q++ {
						src := rng.Intn(n)
						target := keyspace.Key(rng.Float64())
						want := mono.Route(src, target)
						got := client.Route(src, target)
						if got != want {
							t.Fatalf("round %d query %d (%d->%v): sharded %+v, monolithic %+v",
								round, q, src, target, got, want)
						}
						if want.Arrived {
							if exp := expectedCrossings(snap, cluster.m, src, target); client.Crossings() != exp {
								t.Fatalf("round %d query %d: crossings %d, oracle %d",
									round, q, client.Crossings(), exp)
							}
						}
					}
					// Churn between rounds: joins and leaves, republish,
					// rebind both sides to the same epoch.
					for e := 0; e < 10; e++ {
						if rng.Bool(0.5) {
							if err := pub.Join(ctx); err != nil {
								t.Fatal(err)
							}
						} else if live := pub.LiveN(); live > 32 {
							if err := pub.Leave(ctx, rng.Intn(live)); err != nil {
								t.Fatal(err)
							}
						}
					}
					snap = pub.Publish()
					mono.Rebind(snap)
					client.Rebind(snap)
					if cluster.Snapshot() != snap {
						t.Fatal("client rebind did not move the cluster")
					}
				}
			})
		}
	}
}

// TestShardBitIdentityUnderFaults adds a fault mask: dead candidates
// are skipped, dead sources fail cleanly, and the sharded walk still
// matches the monolithic one bit for bit.
func TestShardBitIdentityUnderFaults(t *testing.T) {
	pub := newChurnPublisher(t, 400, keyspace.Ring, 31)
	m, err := netmodel.New(netmodel.Config{DeadFrac: 0.15}, 7)
	if err != nil {
		t.Fatal(err)
	}
	pub.SetFaultPlane(m)
	snap := pub.Snapshot()
	if snap.DeadCount() == 0 {
		t.Fatal("fault mask empty; test needs dead nodes")
	}
	for _, k := range []int{2, 4, 8} {
		cluster, err := New(pub, Config{Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		client, err := cluster.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		mono := snap.NewRouter()
		rng := xrand.New(uint64(k))
		deadTried := false
		for q := 0; q < 800; q++ {
			src := rng.Intn(snap.N())
			deadTried = deadTried || snap.Dead(src)
			target := keyspace.Key(rng.Float64())
			want := mono.Route(src, target)
			if got := client.Route(src, target); got != want {
				t.Fatalf("K=%d query %d (%d->%v): sharded %+v, monolithic %+v",
					k, q, src, target, got, want)
			}
		}
		if !deadTried {
			t.Fatal("no dead source sampled; weaken the mask seed check")
		}
		// Out-of-population sources fail identically without messages.
		if got := client.Route(snap.N()+3, 0.5); got != (overlaynet.Result{Dest: -1}) {
			t.Fatalf("stale source: %+v", got)
		}
		cluster.Close()
	}
}

// TestShardObsCounters pins the shard metric family: queries, local
// hops, forwards, and the crossings histogram all account.
func TestShardObsCounters(t *testing.T) {
	pub := newChurnPublisher(t, 256, keyspace.Ring, 41)
	reg := obs.NewRegistry()
	cluster, err := New(pub, Config{Shards: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	const queries = 400
	totalHops, totalCross := 0, 0
	for q := 0; q < queries; q++ {
		res := client.Route(rng.Intn(256), keyspace.Key(rng.Float64()))
		totalHops += res.Hops
		totalCross += client.Crossings()
	}
	if got := reg.ShardQueries.Value(); got != queries {
		t.Fatalf("shard queries %d, want %d", got, queries)
	}
	if got := reg.ShardForwards.Value(); got != uint64(totalCross) {
		t.Fatalf("forwards %d, crossings paid %d", got, totalCross)
	}
	var hopSum uint64
	for i := range reg.ShardHops {
		hopSum += reg.ShardHops[i].Value()
	}
	if hopSum != uint64(totalHops) {
		t.Fatalf("per-shard hops sum %d, route hops %d", hopSum, totalHops)
	}
	if got := reg.CrossShardHops.Count(); got != queries {
		t.Fatalf("crossings histogram count %d, want %d", got, queries)
	}
	if reg.WireSends.Value() == 0 || reg.WireBytes.Value() == 0 {
		t.Fatal("wire counters not installed on the owned transport")
	}
	// Every query costs 1 query frame + crossings forwards + 1 result.
	if want := uint64(2*queries + totalCross); reg.WireSends.Value() != want {
		t.Fatalf("wire sends %d, want %d", reg.WireSends.Value(), want)
	}
}

// TestForwardPastPopulationFailsCleanly pins liveness across a shrink
// rebind: a forward naming a slot the serving epoch no longer has comes
// back to its origin as a clean failure (Dest -1), so a client that
// waits without a timeout on a loss-free wire is never left waiting.
func TestForwardPastPopulationFailsCleanly(t *testing.T) {
	pub := newChurnPublisher(t, 64, keyspace.Ring, 5)
	cluster, err := New(pub, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	client.Timeout = 5 * time.Second // bounds the test only if the result is lost
	p := wire.AppendU32(nil, uint32(client.addr))
	p = wire.AppendU32(p, uint32(cluster.Snapshot().N())) // one past the last slot
	p = wire.AppendU32(p, 3)                              // hops so far
	p = wire.AppendU32(p, 1)                              // crossings so far
	p = wire.AppendF64(p, 0.25)
	p = wire.AppendF64(p, 0.5)
	const corr = 42
	frame := wire.AppendFrame(nil, wire.Frame{Type: msgForward, From: 0, To: 1, Corr: corr, Payload: p})
	if err := cluster.tr.Send(1, frame); err != nil {
		t.Fatal(err)
	}
	r, ok := client.await(corr)
	if !ok {
		t.Fatal("a forward past the population was dropped: no result came back")
	}
	if r.dest != -1 || r.arrived {
		t.Fatalf("result %+v, want a clean failure (dest -1, not arrived)", r)
	}
}

func topoName(t keyspace.Topology) string {
	if t == keyspace.Ring {
		return "ring"
	}
	return "line"
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}

// BenchmarkShardRoute measures one routed query over the 4-shard
// channel wire — the request/response round trip including every
// cross-shard forward — against a 4096-node skewed overlay.
func BenchmarkShardRoute(b *testing.B) {
	pub := newChurnPublisher(b, 4096, keyspace.Ring, 3)
	cluster, err := New(pub, Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	snap := pub.Snapshot()
	rng := xrand.New(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := client.Route(rng.Intn(snap.N()), keyspace.Key(rng.Float64()))
		if res.Dest < 0 {
			b.Fatal("route failed")
		}
	}
}
