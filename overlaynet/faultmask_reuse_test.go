package overlaynet

import (
	"context"
	"math"
	"slices"
	"testing"

	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/xrand"
)

// TestFaultMaskReuse pins the publish-path sharing contract
// (faultMaskLocked): when nothing the mask is derived from changed —
// fault-plane epoch, membership — a republish must hand the
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

	// Membership change: rebuilt, sized to the new population.
	if err := pub.Join(ctx); err != nil {
		t.Fatal(err)
	}
	s5 := pub.Publish()
	if s5.faults == s4.faults {
		t.Fatal("membership changed: mask was shared, want rebuilt")
	}
	if len(s5.faults.dead) != s5.N() {
		t.Fatalf("mask len %d, population %d", len(s5.faults.dead), s5.N())
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

// countingPlane counts the identifiers a mask build asks the plane
// about (every build asks Dead once per slot it covers).
type countingPlane struct {
	*netmodel.Model
	asked int
}

func (c *countingPlane) Dead(k keyspace.Key) bool {
	c.asked++
	return c.Model.Dead(k)
}

// TestFaultMaskPatch pins the patched publish path: when the plane and
// its epoch are unchanged but membership is not, the new mask equals a
// full buildFaultMask, and the plane is asked only about the slots
// whose identifier changed since the last publication, at most one per
// membership event — after joins that open a new key chunk, leaves that
// pop one, renames across chunks and a mixed epoch. An epoch bump or a
// plane swap asks about every slot again.
func TestFaultMaskPatch(t *testing.T) {
	ctx := context.Background()
	// Masks take no vantage: a slot is masked exactly when the plane
	// reports its identifier dead.
	t.Run("vantage=false", func(t *testing.T) {
		dyn, err := NewIncremental(ctx, "smallworld-uniform", Options{N: 3000, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		pub, err := NewPublisher(dyn, PublishEvery(1<<30))
		if err != nil {
			t.Fatal(err)
		}
		m, err := netmodel.New(netmodel.Config{DeadFrac: 0.1}, 37)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetPartition(netmodel.Partition{Cuts: []float64{0.3, 0.7}}); err != nil {
			t.Fatal(err)
		}
		fp := &countingPlane{Model: m}
		pub.SetFaultPlane(fp)

		// publish publishes, checks the mask against a full build, and
		// returns how many slots the plane was asked about.
		publish := func(step string) int {
			t.Helper()
			fp.asked = 0
			s := pub.Publish()
			asked := fp.asked
			want := buildFaultMask(s, m)
			if s.faults.epoch != want.epoch || s.faults.n != want.n || !slices.Equal(s.faults.dead, want.dead) {
				t.Fatalf("%s: mask (epoch %d, %d dead) differs from a full build (epoch %d, %d dead)",
					step, s.faults.epoch, s.faults.n, want.epoch, want.n)
			}
			return asked
		}
		// changed counts the slots of s that prev did not have or held
		// another identifier in.
		changed := func(prev, s *Snapshot) int {
			count := 0
			for u := 0; u < s.N(); u++ {
				if u >= prev.N() || math.Float64bits(float64(prev.Key(u))) != math.Float64bits(float64(s.Key(u))) {
					count++
				}
			}
			return count
		}
		events := 0
		join := func() {
			if err := pub.Join(ctx); err != nil {
				t.Fatal(err)
			}
			events++
		}
		leave := func(u int) {
			if err := pub.Leave(ctx, u); err != nil {
				t.Fatal(err)
			}
			events++
		}
		patched := func(step string, apply func()) {
			t.Helper()
			prev := pub.Snapshot()
			events = 0
			apply()
			asked := publish(step)
			if want := changed(prev, pub.Snapshot()); asked != want || asked > events {
				t.Fatalf("%s: plane asked about %d slots after %d events, want the %d that changed identifier", step, asked, events, want)
			}
		}

		if asked := publish("unchanged"); asked != 0 {
			t.Fatalf("unchanged: plane asked about %d slots, want a shared mask", asked)
		}
		patched("one join", join)
		patched("joins opening a key chunk", func() {
			for pub.LiveN() <= 3*keyChunkLen {
				join()
			}
		})
		if n := pub.Snapshot().N(); n <= 3*keyChunkLen {
			t.Fatalf("fixture: %d slots open no fourth key chunk", n)
		}
		patched("leaves popping a key chunk", func() {
			for pub.LiveN() > 3*keyChunkLen {
				leave(pub.LiveN() - 1)
			}
		})
		patched("a rename into chunk 0", func() { leave(5) })
		patched("a rename into chunk 1", func() { leave(keyChunkLen + 7) })
		rng := xrand.New(41)
		patched("a mixed epoch", func() {
			for ev := 0; ev < defaultPublishEvery; ev++ {
				if ev%2 == 0 {
					join()
				} else {
					leave(rng.Intn(pub.LiveN()))
				}
			}
		})

		// An epoch bump asks about every slot, as does a plane swap.
		leave(3)
		if err := m.SetPartition(netmodel.Partition{Cuts: []float64{0.2, 0.6}}); err != nil {
			t.Fatal(err)
		}
		if asked, n := publish("epoch bump"), pub.Snapshot().N(); asked != n {
			t.Fatalf("epoch bump: plane asked about %d slots, want all %d", asked, n)
		}
		// The new plane reports the same epoch, so only the installation
		// tells the planes apart.
		leave(4)
		other, err := netmodel.New(netmodel.Config{DeadFrac: 0.1}, 43)
		if err != nil {
			t.Fatal(err)
		}
		for _, cuts := range [][]float64{{0.3, 0.7}, {0.2, 0.6}} {
			if err := other.SetPartition(netmodel.Partition{Cuts: cuts}); err != nil {
				t.Fatal(err)
			}
		}
		if other.FaultEpoch() != m.FaultEpoch() {
			t.Fatalf("fixture: plane epochs %d and %d differ", other.FaultEpoch(), m.FaultEpoch())
		}
		fp = &countingPlane{Model: other}
		pub.SetFaultPlane(fp)
		m = other
		s := pub.Snapshot()
		if fp.asked != s.N() {
			t.Fatalf("plane swap: plane asked about %d slots, want all %d", fp.asked, s.N())
		}
		if want := buildFaultMask(s, m); s.faults.n != want.n || !slices.Equal(s.faults.dead, want.dead) {
			t.Fatal("plane swap: mask differs from a full build")
		}
		patched("a join after the swap", join)
	})
}
