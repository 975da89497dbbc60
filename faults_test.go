package smallworld

import (
	"testing"

	"smallworld/keyspace"
	"smallworld/metrics"
	"smallworld/xrand"
)

func TestFailSetBasics(t *testing.T) {
	cfg := UniformConfig(128, 71)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	fs := NewFailSet(nw, xrand.New(72), 0.3)
	dead := 0
	for u := 0; u < nw.N(); u++ {
		if fs.Dead(u) {
			dead++
		}
	}
	if dead < 20 || dead > 60 {
		t.Errorf("dead count %d implausible for frac 0.3 of 128", dead)
	}
}

func TestClosestLive(t *testing.T) {
	cfg := UniformConfig(64, 73)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	fs := NewFailSet(nw, xrand.New(74), 0)
	target := nw.Key(10)
	if got := nw.closestLive(target, fs.dead); got != 10 {
		t.Errorf("closestLive with no failures = %d, want 10", got)
	}
	fs.dead[10] = true
	got := nw.closestLive(target, fs.dead)
	if got != 9 && got != 11 {
		t.Errorf("closestLive with owner dead = %d, want a ring neighbour", got)
	}
}

func TestAvoidingSkipsDeadNodes(t *testing.T) {
	cfg := UniformConfig(512, 75)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	fs := NewFailSet(nw, xrand.New(76), 0.2)
	r := xrand.New(77)
	for i := 0; i < 300; i++ {
		src := r.Intn(nw.N())
		if fs.Dead(src) {
			continue
		}
		rt := nw.RouteGreedyAvoiding(src, keyspace.Key(r.Float64()), fs)
		for _, u := range rt.Path[1:] {
			if fs.Dead(u) {
				t.Fatal("route passed through a dead node")
			}
		}
	}
}

func TestBacktrackingAlwaysArrives(t *testing.T) {
	// With ring neighbours dead, plain greedy can strand; backtracking
	// must still arrive whenever the live subgraph is connected. At 30%
	// failures the ring is broken, but the long links keep the live
	// subgraph connected with overwhelming probability.
	cfg := UniformConfig(512, 78)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	fs := NewFailSet(nw, xrand.New(79), 0.3)
	r := xrand.New(80)
	attempts, arrived := 0, 0
	for i := 0; i < 200; i++ {
		src := r.Intn(nw.N())
		if fs.Dead(src) {
			continue
		}
		attempts++
		rt := nw.RouteBacktracking(src, keyspace.Key(r.Float64()), fs)
		if rt.Arrived {
			arrived++
		}
		for _, u := range rt.Path {
			if u != src && fs.Dead(u) {
				t.Fatal("backtracking route entered a dead node")
			}
		}
	}
	if attempts == 0 {
		t.Fatal("no live sources sampled")
	}
	if frac := float64(arrived) / float64(attempts); frac < 0.99 {
		t.Errorf("backtracking arrival rate %.3f, want ~1", frac)
	}
}

func TestBacktrackingBeatsGreedyUnderFailures(t *testing.T) {
	cfg := UniformConfig(512, 81)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	fs := NewFailSet(nw, xrand.New(82), 0.4)
	r := xrand.New(83)
	greedyOK, backOK, attempts := 0, 0, 0
	for i := 0; i < 300; i++ {
		src := r.Intn(nw.N())
		if fs.Dead(src) {
			continue
		}
		attempts++
		target := keyspace.Key(r.Float64())
		if nw.RouteGreedyAvoiding(src, target, fs).Arrived {
			greedyOK++
		}
		if nw.RouteBacktracking(src, target, fs).Arrived {
			backOK++
		}
	}
	if backOK <= greedyOK {
		t.Errorf("backtracking (%d/%d) should beat plain greedy (%d/%d) at 40%% failures",
			backOK, attempts, greedyOK, attempts)
	}
}

func TestBacktrackingNoFailuresMatchesGreedy(t *testing.T) {
	cfg := UniformConfig(256, 84)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	fs := NewFailSet(nw, xrand.New(85), 0)
	r := xrand.New(86)
	var g, bt metrics.Summary
	for i := 0; i < 300; i++ {
		src := r.Intn(nw.N())
		target := nw.Key(r.Intn(nw.N()))
		rtG := nw.RouteGreedy(src, target)
		rtB := nw.RouteBacktracking(src, target, fs)
		if !rtB.Arrived {
			t.Fatal("backtracking failed with no failures")
		}
		g.Add(float64(rtG.Hops()))
		bt.Add(float64(rtB.Hops()))
	}
	if bt.Mean() > g.Mean()*1.05 {
		t.Errorf("with no failures backtracking (%.2f) should track greedy (%.2f)", bt.Mean(), g.Mean())
	}
}

// TestFaultRoutesArriveOnExactTie is the regression for judging arrival
// by node identity: with the target at the exact midpoint of two
// neighbouring peers, either peer is a correct destination. Starting at
// the one closestLive does not pick, every router must stop at once and
// report a delivery.
func TestFaultRoutesArriveOnExactTie(t *testing.T) {
	for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
		cfg := UniformConfig(4096, 7)
		cfg.Topology = topo
		nw := mustBuild(t, cfg)
		fs := NewFailSet(nw, xrand.New(1), 0)
		tested := 0
		for u := 0; u+1 < nw.N() && tested < 8; u++ {
			lo, hi := nw.Key(u), nw.Key(u+1)
			mid := keyspace.Key(float64(lo) + (float64(hi)-float64(lo))/2)
			if topo.Distance(lo, mid) != topo.Distance(hi, mid) {
				continue
			}
			tested++
			src := u + 1
			if nw.closestLive(mid, fs.dead) == src {
				src = u
			}
			for name, rt := range map[string]Route{
				"RouteGreedy":         nw.RouteGreedy(src, mid),
				"RouteGreedyAvoiding": nw.RouteGreedyAvoiding(src, mid, fs),
				"RouteBacktracking":   nw.RouteBacktracking(src, mid, fs),
			} {
				if !rt.Arrived || rt.Hops() != 0 {
					t.Fatalf("%v: %s from %d to the midpoint of %d and %d: path %v, arrived %v",
						topo, name, src, u, u+1, rt.Path, rt.Arrived)
				}
			}
		}
		if tested == 0 {
			t.Fatalf("%v: no exact-midpoint targets", topo)
		}
	}
}

func TestClosestLiveAllDead(t *testing.T) {
	cfg := UniformConfig(32, 89)
	cfg.Topology = keyspace.Ring
	nw := mustBuild(t, cfg)
	fs := NewFailSet(nw, xrand.New(90), 0)
	for u := 0; u < nw.N(); u++ {
		fs.dead[u] = true
	}
	if got := nw.closestLive(0.5, fs.dead); got != -1 {
		t.Errorf("closestLive with everyone dead = %d, want -1", got)
	}
}

// TestBacktrackingLineVsRing pins the fault path on both key-space
// geometries: on a Line the ring cannot wrap around a dead stretch, so
// backtracking leans harder on the long links, but on both topologies
// it must avoid dead nodes and deliver whenever plain greedy does.
func TestBacktrackingLineVsRing(t *testing.T) {
	for _, topo := range []keyspace.Topology{keyspace.Line, keyspace.Ring} {
		cfg := UniformConfig(256, 93)
		cfg.Topology = topo
		nw := mustBuild(t, cfg)
		fs := NewFailSet(nw, xrand.New(94), 0.25)
		r := xrand.New(95)
		attempts, greedyOK, backOK := 0, 0, 0
		for i := 0; i < 200; i++ {
			src := r.Intn(nw.N())
			target := keyspace.Key(r.Float64())
			if fs.Dead(src) {
				continue
			}
			attempts++
			if nw.RouteGreedyAvoiding(src, target, fs).Arrived {
				greedyOK++
			}
			rt := nw.RouteBacktracking(src, target, fs)
			if rt.Arrived {
				backOK++
			}
			for _, u := range rt.Path {
				if u != src && fs.Dead(u) {
					t.Fatalf("%v: backtracking entered dead node %d", topo, u)
				}
			}
		}
		if attempts == 0 {
			t.Fatalf("%v: no live sources sampled", topo)
		}
		if backOK < greedyOK {
			t.Errorf("%v: backtracking delivered %d/%d, below greedy %d/%d",
				topo, backOK, attempts, greedyOK, attempts)
		}
		if frac := float64(backOK) / float64(attempts); frac < 0.95 {
			t.Errorf("%v: backtracking arrival rate %.3f, want ~1", topo, frac)
		}
	}
}

func TestRouteBacktrackingAllDead(t *testing.T) {
	cfg := UniformConfig(64, 87)
	nw := mustBuild(t, cfg)
	fs := NewFailSet(nw, xrand.New(88), 0)
	for u := 0; u < nw.N(); u++ {
		fs.dead[u] = true
	}
	rt := nw.RouteBacktracking(0, 0.5, fs)
	if rt.Arrived {
		t.Error("cannot arrive when every node is dead")
	}
}
