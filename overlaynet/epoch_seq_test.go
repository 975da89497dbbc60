package overlaynet

import (
	"context"
	"math"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// TestEpochSequenceBitIdentical drives 1k churn events through the
// chunked-snapshot path, capturing a snapshot after every event, and
// pins each epoch's Keys()/rank lookups bit-identical to the flat-copy
// reference (captureFlat — the O(N) flat capture). Retained
// (snapshot, reference) pairs are re-verified after the full run, so a
// copy-on-write violation that mutates an already-published chunk
// fails the test even if the at-capture comparison passed.
func TestEpochSequenceBitIdentical(t *testing.T) {
	dyn, err := NewIncremental(context.Background(), "smallworld-skewed", Options{
		N: 512, Seed: 23, Dist: dist.NewPower(0.7), Topology: keyspace.Ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := dyn.(*incrementalOverlay)
	rng := xrand.New(99)

	type pinned struct {
		snap *Snapshot
		ref  flatCapture
	}
	var retained []pinned

	const events = 1000
	for ev := 0; ev < events; ev++ {
		if rng.Bool(0.5) && o.N() > 3 {
			if err := o.Leave(context.Background(), rng.Intn(o.N())); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := o.Join(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		snap := o.CaptureSnapshot()
		ref := o.captureFlat()
		compareSnapshotToFlat(t, ev, snap, ref)
		if ev%100 == 0 {
			retained = append(retained, pinned{snap, ref})
		}
	}

	// Old epochs must have survived all subsequent copy-on-write churn.
	for i, p := range retained {
		compareSnapshotToFlat(t, -i, p.snap, p.ref)
	}
}

// flatCapture is the O(N) flat per-epoch copy the chunked capture
// replaced, kept as the paired A/B baseline: BenchmarkPublishEpoch
// measures it against the structural-sharing capture, and the
// epoch-sequence test uses it as the bit-identical flat reference for
// every published epoch.
type flatCapture struct {
	keys  []keyspace.Key
	byKey keyspace.Points
	order []int32
}

func (o *incrementalOverlay) captureFlat() flatCapture {
	return flatCapture{
		keys:  append([]keyspace.Key(nil), o.keys...),
		byKey: append(keyspace.Points(nil), o.byKey...),
		order: append([]int32(nil), o.order...),
	}
}

// compareSnapshotToFlat checks every read surface of a chunked
// snapshot against the flat reference arrays: per-slot keys, the full
// Keys() materialization, per-rank key/slot reads, and the search
// family (Successor/Predecessor/Nearest) on a probe sweep.
func compareSnapshotToFlat(t *testing.T, ev int, s *Snapshot, ref flatCapture) {
	t.Helper()
	n := len(ref.keys)
	if s.N() != n || s.rank.Len() != n {
		t.Fatalf("ev %d: N %d / rank %d, want %d", ev, s.N(), s.rank.Len(), n)
	}
	for u := 0; u < n; u++ {
		if s.Key(u) != ref.keys[u] {
			t.Fatalf("ev %d: Key(%d) = %v, want %v", ev, u, s.Key(u), ref.keys[u])
		}
	}
	flat := s.keys.materialize()
	for u := 0; u < n; u++ {
		if flat[u] != ref.keys[u] {
			t.Fatalf("ev %d: materialized keys differ at %d", ev, u)
		}
	}
	for i := 0; i < n; i++ {
		if s.rank.KeyAt(i) != ref.byKey[i] {
			t.Fatalf("ev %d: KeyAt(%d) = %v, want %v", ev, i, s.rank.KeyAt(i), ref.byKey[i])
		}
		if s.rank.SlotAt(i) != ref.order[i] {
			t.Fatalf("ev %d: SlotAt(%d) = %d, want %d", ev, i, s.rank.SlotAt(i), ref.order[i])
		}
	}
	// Probe the search family at existing keys, their midpoints, and
	// the space's edges — every comparison the routers' termination
	// logic performs must agree with keyspace.Points bit-exactly.
	probe := func(x keyspace.Key) {
		if got, want := s.rank.Successor(x), ref.byKey.Successor(x); got != want {
			t.Fatalf("ev %d: Successor(%v) = %d, want %d", ev, x, got, want)
		}
		if got, want := s.rank.Predecessor(x), ref.byKey.Predecessor(x); got != want {
			t.Fatalf("ev %d: Predecessor(%v) = %d, want %d", ev, x, got, want)
		}
		for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
			if got, want := s.rank.Nearest(topo, x), ref.byKey.Nearest(topo, x); got != want {
				t.Fatalf("ev %d: Nearest(%v, %v) = %d, want %d", ev, topo, x, got, want)
			}
		}
	}
	step := n/64 + 1
	for i := 0; i < n; i += step {
		probe(ref.byKey[i])
		probe(keyspace.Key(float64(ref.byKey[i]) + 1e-12))
		if i+1 < n {
			probe(keyspace.Key((float64(ref.byKey[i]) + float64(ref.byKey[i+1])) / 2))
		}
	}
	probe(0)
	probe(keyspace.Key(0.5))
	probe(keyspace.Key(math.Nextafter(1, 0)))
}
