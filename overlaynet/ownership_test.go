package overlaynet

import (
	"context"
	"math"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
)

// ownedRange is the responsibility region of slot u in snapshot s: the
// keyspace.Cell of u's rank in the snapshot's sorted population, the
// cell the store reads for u.
func ownedRange(s *Snapshot, u int) keyspace.Interval {
	return keyspace.Cell(s.topo, s.SortedKeys(), s.rank.rankOf(s.keys.At(u), int32(u)))
}

// TestOwnedRangeTilesKeySpace pins the ownership properties the store
// depends on, under skewed identifier populations and non-power-of-two
// N on both topologies: every slot's owned range is well defined, the
// ranges are pairwise disjoint, their lengths sum to the full key
// space, and any key lies in exactly one slot's range.
func TestOwnedRangeTilesKeySpace(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		topo keyspace.Topology
	}{
		{"ring", keyspace.Ring},
		{"line", keyspace.Line},
	} {
		for _, n := range []int{3, 37, 100, 257} {
			dyn, err := NewIncremental(ctx, "smallworld-skewed",
				Options{N: n, Seed: uint64(n) * 13, Dist: dist.NewPower(0.7), Topology: tc.topo})
			if err != nil {
				t.Fatal(err)
			}
			s := NewSnapshot(dyn)
			sum := 0.0
			for u := 0; u < s.N(); u++ {
				sum += ownedRange(s, u).Length()
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s n=%d: owned ranges sum to %v, want 1", tc.name, n, sum)
			}
			// Probe a grid plus every identifier and range boundary — the
			// half-open edge cases where double- or zero-ownership would hide.
			probes := make([]keyspace.Key, 0, 3*n+128)
			for i := 0; i < 128; i++ {
				probes = append(probes, keyspace.Key(float64(i)/128))
			}
			for u := 0; u < s.N(); u++ {
				r := ownedRange(s, u)
				probes = append(probes, s.Key(u), r.Lo)
			}
			for _, k := range probes {
				owners := 0
				for u := 0; u < s.N(); u++ {
					if ownedRange(s, u).Contains(k) {
						owners++
					}
				}
				if owners != 1 {
					t.Fatalf("%s n=%d: key %v lies in %d owned ranges, want exactly 1", tc.name, n, k, owners)
				}
			}
			// Each slot's range contains its own identifier (cells are
			// centred on their points) unless degenerate spacing collapsed
			// it to zero width.
			for u := 0; u < s.N(); u++ {
				r := ownedRange(s, u)
				if !r.Empty() && !r.Contains(s.Key(u)) {
					// The upper-owns convention can push a key one cell up
					// only when the midpoint rounds onto the key itself.
					if r.Hi != s.Key(u) {
						t.Fatalf("%s n=%d: slot %d key %v outside its range %v", tc.name, n, u, s.Key(u), r)
					}
				}
			}
		}
	}
}

// TestOwnedRangeMatchesNetworkCell verifies the snapshot-side ownership
// agrees with keyspace.Owner over the snapshot's sorted population —
// one definition of "who owns what" across layers.
func TestOwnedRangeMatchesNetworkCell(t *testing.T) {
	ctx := context.Background()
	dyn, err := NewIncremental(ctx, "smallworld-skewed",
		Options{N: 101, Seed: 5, Dist: dist.NewPower(0.8), Topology: keyspace.Ring})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSnapshot(dyn)
	for i := 0; i < 500; i++ {
		k := keyspace.Key(float64(i) / 500)
		rank := keyspace.Owner(s.Topology(), s.SortedKeys(), k)
		var owner int = -1
		for u := 0; u < s.N(); u++ {
			if ownedRange(s, u).Contains(k) {
				owner = u
				break
			}
		}
		if owner < 0 || s.Key(owner) != s.SortedKeys()[rank] {
			t.Fatalf("key %v: ownedRange owner %d (key %v) disagrees with keyspace.Owner rank %d (key %v)",
				k, owner, s.Key(owner), rank, s.SortedKeys()[rank])
		}
	}
}

// TestOwnershipChangeNarratesChurn drives churn with a watcher
// installed and checks, probe by probe, that the emitted changes are
// exactly the ownership delta of each membership event: a model map
// (probe key → owner identifier) updated only from OwnershipChange
// events stays identical to the ownership recomputed from scratch after
// every single event, on both topologies.
func TestOwnershipChangeNarratesChurn(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		topo keyspace.Topology
	}{
		{"ring", keyspace.Ring},
		{"line", keyspace.Line},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dyn, err := NewIncremental(ctx, "smallworld-skewed",
				Options{N: 24, Seed: 42, Dist: dist.NewPower(0.7), Topology: tc.topo})
			if err != nil {
				t.Fatal(err)
			}
			o := dyn.(*incrementalOverlay)
			var events []OwnershipChange
			o.SetOwnershipWatcher(func(ch OwnershipChange) { events = append(events, ch) })
			// Prime-count probe grid: lands on a cell boundary only if a
			// midpoint happens to hit i/257 exactly, which the skewed draw
			// does not produce.
			probes := make([]keyspace.Key, 0, 257)
			for i := 0; i < 257; i++ {
				probes = append(probes, keyspace.Key(float64(i)/257))
			}
			sorted := o.captureFlat().byKey
			owner := func(k keyspace.Key) keyspace.Key {
				return sorted[keyspace.Owner(o.topo, sorted, k)]
			}
			model := make(map[keyspace.Key]keyspace.Key, len(probes))
			for _, k := range probes {
				model[k] = owner(k)
			}
			for i := 0; i < 200; i++ {
				events = events[:0]
				if i%2 == 0 || o.N() <= 3 {
					if err := o.Join(ctx); err != nil {
						t.Fatal(err)
					}
				} else if err := o.Leave(ctx, (i*31)%o.N()); err != nil {
					t.Fatal(err)
				}
				if len(events) == 0 {
					t.Fatalf("event %d: no ownership changes emitted", i)
				}
				for _, ch := range events {
					if ch.Range.Empty() {
						t.Fatalf("event %d: empty range emitted: %+v", i, ch)
					}
					for _, k := range probes {
						if !ch.Range.Contains(k) {
							continue
						}
						if ch.Joined {
							if model[k] != ch.Peer {
								t.Fatalf("event %d: join says probe %v comes from %v, model owner is %v", i, k, ch.Peer, model[k])
							}
							model[k] = ch.Node
						} else {
							if model[k] != ch.Node {
								t.Fatalf("event %d: leave says probe %v belonged to %v, model owner is %v", i, k, ch.Node, model[k])
							}
							model[k] = ch.Peer
						}
					}
				}
				sorted = o.captureFlat().byKey
				for _, k := range probes {
					if got := owner(k); got != model[k] {
						t.Fatalf("%s event %d: probe %v owned by %v, event-driven model says %v", tc.name, i, k, got, model[k])
					}
				}
			}
		})
	}
}

// TestPublisherForwardsOwnershipWatcher pins the Publisher pass-through:
// a watcher installed on the Publisher sees the wrapped incremental
// overlay's events.
func TestPublisherForwardsOwnershipWatcher(t *testing.T) {
	ctx := context.Background()
	dyn, err := NewIncremental(ctx, "smallworld-skewed",
		Options{N: 16, Seed: 3, Dist: dist.NewPower(0.7), Topology: keyspace.Ring})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(dyn, PublishEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	var got []OwnershipChange
	pub.SetOwnershipWatcher(func(ch OwnershipChange) { got = append(got, ch) })
	if err := pub.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no ownership change forwarded through the Publisher")
	}
	for _, ch := range got {
		if !ch.Joined {
			t.Fatalf("join emitted a leave-flavoured change: %+v", ch)
		}
	}
	n := pub.LiveN()
	got = got[:0]
	if err := pub.Leave(ctx, n-1); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no leave change forwarded through the Publisher")
	}
}
