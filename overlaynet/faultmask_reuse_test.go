package overlaynet

import (
	"context"
	"testing"

	"smallworld/netmodel"
)

// TestFaultMaskReuse pins the publish-path sharing contract
// (faultMaskLocked): when nothing the mask is derived from changed —
// fault-plane epoch, vantage, membership — a republish must hand the
// previous snapshot's mask object to the new snapshot instead of
// re-materialising the O(N) dead array; and any of those inputs
// changing must force a fresh, correct mask.
func TestFaultMaskReuse(t *testing.T) {
	ctx := context.Background()
	dyn, err := NewIncremental(ctx, "smallworld-uniform", Options{N: 256, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(dyn)
	if err != nil {
		t.Fatal(err)
	}
	m, err := netmodel.New(netmodel.Config{DeadFrac: 0.1}, 29)
	if err != nil {
		t.Fatal(err)
	}
	pub.SetFaultPlane(m)

	checkMask := func(s *Snapshot) {
		t.Helper()
		if s.faults == nil || len(s.faults.dead) != s.N() {
			t.Fatalf("mask missing or mis-sized: %v", s.faults)
		}
		if s.FaultEpoch() != m.FaultEpoch() {
			t.Fatalf("mask epoch %d, plane %d", s.FaultEpoch(), m.FaultEpoch())
		}
		for u := 0; u < s.N(); u++ {
			if s.Dead(u) != m.Dead(s.Key(u)) {
				t.Fatalf("slot %d: mask %v, plane %v", u, s.Dead(u), m.Dead(s.Key(u)))
			}
		}
	}

	s1 := pub.Snapshot()
	checkMask(s1)

	// Nothing changed: republishing must share the mask object.
	s2 := pub.Publish()
	if s2 == s1 {
		t.Fatal("Publish returned the same snapshot")
	}
	if s2.faults != s1.faults {
		t.Fatal("unchanged plane + membership: mask was rebuilt, want shared")
	}

	// Fault-plane epoch bump (a partition cut): mask must be rebuilt.
	if err := m.SetPartition(netmodel.Partition{Cuts: []float64{0.3, 0.7}}); err != nil {
		t.Fatal(err)
	}
	s3 := pub.Publish()
	if s3.faults == s2.faults {
		t.Fatal("fault epoch bumped: mask was shared, want rebuilt")
	}
	checkMask(s3)

	// Unchanged again after the cut: back to sharing.
	s4 := pub.Publish()
	if s4.faults != s3.faults {
		t.Fatal("unchanged plane after cut: mask was rebuilt, want shared")
	}

	// Vantage change: rebuilt (the mask now also covers reachability).
	pub.SetVantage(pub.Snapshot().Key(0))
	s5 := pub.Snapshot()
	if s5.faults == s4.faults {
		t.Fatal("vantage changed: mask was shared, want rebuilt")
	}

	// Membership change: rebuilt, sized to the new population.
	if err := pub.Join(ctx); err != nil {
		t.Fatal(err)
	}
	s6 := pub.Publish()
	if s6.faults == s5.faults {
		t.Fatal("membership changed: mask was shared, want rebuilt")
	}
	if len(s6.faults.dead) != s6.N() {
		t.Fatalf("mask len %d, population %d", len(s6.faults.dead), s6.N())
	}

	// The retained early snapshots must still read their own epoch's
	// mask (immutability: sharing must never mutate a published mask).
	checkOld := func(s *Snapshot, wantEpoch uint64) {
		t.Helper()
		if s.FaultEpoch() != wantEpoch {
			t.Fatalf("old snapshot epoch drifted: %d, want %d", s.FaultEpoch(), wantEpoch)
		}
		if len(s.faults.dead) != s.N() {
			t.Fatalf("old snapshot mask resized: %d, want %d", len(s.faults.dead), s.N())
		}
	}
	checkOld(s1, s1.faults.epoch)
	checkOld(s2, s1.faults.epoch)
}

// TestFaultMaskPlaneSwap pins that mask reuse is keyed on the installed
// plane, not only on its fault epoch: two fresh netmodel.Models both
// report epoch 1 but kill different nodes, so swapping one for the
// other must rebuild the mask.
func TestFaultMaskPlaneSwap(t *testing.T) {
	dyn, err := NewIncremental(context.Background(), "smallworld-uniform", Options{N: 256, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(dyn)
	if err != nil {
		t.Fatal(err)
	}
	a, err := netmodel.New(netmodel.Config{DeadFrac: 0.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := netmodel.New(netmodel.Config{DeadFrac: 0.2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.FaultEpoch() != b.FaultEpoch() {
		t.Fatalf("fixture: plane epochs %d and %d differ", a.FaultEpoch(), b.FaultEpoch())
	}
	differ := false
	for u := 0; u < pub.N(); u++ {
		if a.Dead(pub.Key(u)) != b.Dead(pub.Key(u)) {
			differ = true
		}
	}
	if !differ {
		t.Fatal("fixture: both planes kill the same nodes")
	}
	for i, fp := range []*netmodel.Model{a, b, a} {
		pub.SetFaultPlane(fp)
		s := pub.Snapshot()
		for u := 0; u < s.N(); u++ {
			if s.Dead(u) != fp.Dead(s.Key(u)) {
				t.Fatalf("install %d: slot %d mask %v, plane %v", i, u, s.Dead(u), fp.Dead(s.Key(u)))
			}
		}
		// Republishing over the same plane still shares the mask.
		if again := pub.Publish(); again.faults != s.faults {
			t.Fatalf("install %d: unchanged plane, mask rebuilt", i)
		}
	}
}
