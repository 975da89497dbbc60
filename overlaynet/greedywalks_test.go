package overlaynet

import (
	"context"
	"math"
	"testing"

	"smallworld"
	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// TestGreedyWalksAgree pins every greedy walk over one graph to the
// same (dest, hops, arrived):
//
//   - the static router, smallworld.Router.RouteGreedy;
//   - RouteGreedyAvoiding with an empty FailSet;
//   - the Snapshot router;
//   - the stepwise GreedyInit/GreedyStep walk the sharded plane drives;
//   - the incremental overlay's router before any churn.
//
// Builds are uniform and skewed on both topologies, plus ulp-clustered
// identifiers for the walks over a *smallworld.Network. Targets are
// node keys, their ulp nudges, and exact midpoints between neighbouring
// keys — the distance ties where a walk may stop at either peer and
// must still count as delivered.
func TestGreedyWalksAgree(t *testing.T) {
	ctx := context.Background()
	type build struct {
		name string
		nw   *smallworld.Network
		inc  Router // nil where no incremental overlay applies
	}
	var builds []build
	for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
		for _, reg := range []struct {
			name string
			opts Options
		}{
			{"smallworld-uniform", Options{N: 2048, Seed: 7, Topology: topo}},
			{"smallworld-skewed", Options{N: 2048, Seed: 11, Topology: topo, Dist: dist.NewPower(0.7)}},
		} {
			ov, err := Build(ctx, reg.name, reg.opts)
			if err != nil {
				t.Fatal(err)
			}
			dyn, err := NewIncremental(ctx, reg.name, reg.opts)
			if err != nil {
				t.Fatal(err)
			}
			nw := ov.(interface{ Network() *smallworld.Network }).Network()
			builds = append(builds, build{reg.name + "/" + topo.String(), nw, dyn.NewRouter()})
		}
		keys := ulpRun(0.5, 9)
		keys = append(keys, ulpRun(math.Nextafter(math.Nextafter(1, 0), 0), 2)...)
		keys = append(keys, 0.05, 0.2, 0.8)
		cfg := smallworld.UniformConfig(len(keys), 101)
		cfg.Topology = topo
		cfg.Keys = keys
		nw, err := smallworld.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		builds = append(builds, build{"ulpclusters/" + topo.String(), nw, nil})
	}

	for _, bd := range builds {
		t.Run(bd.name, func(t *testing.T) {
			nw := bd.nw
			n := nw.N()
			topo := nw.Config().Topology
			rng := xrand.New(uint64(n) + 13)
			type query struct {
				src    int
				target keyspace.Key
			}
			var queries []query
			add := func(src int, k keyspace.Key) {
				if k.Valid() {
					queries = append(queries, query{src, k})
				}
			}
			ties := 0
			step := n/64 + 1
			for u := 0; u < n; u += step {
				k := float64(nw.Key(u))
				add(rng.Intn(n), nw.Key(u))
				add(rng.Intn(n), keyspace.Key(math.Nextafter(k, 0)))
				add(rng.Intn(n), keyspace.Key(math.Nextafter(k, 2)))
				if u+1 == n {
					continue
				}
				lo, hi := nw.Key(u), nw.Key(u+1)
				mid := keyspace.Key(float64(lo) + (float64(hi)-float64(lo))/2)
				if topo.Distance(lo, mid) != topo.Distance(hi, mid) {
					continue
				}
				// Start on either side of the tie and from afar.
				ties++
				add(u, mid)
				add(u+1, mid)
				add(rng.Intn(n), mid)
			}
			if ties == 0 {
				t.Fatal("no exact-midpoint targets generated")
			}

			r := nw.NewRouter()
			none := smallworld.NewFailSet(nw, xrand.New(1), 0)
			snap := NewSnapshot(WrapNetwork(nw))
			sr := snap.NewRouter()
			for i, q := range queries {
				rt := r.RouteGreedy(q.src, q.target)
				want := Result{Hops: rt.Hops(), Dest: rt.Path[len(rt.Path)-1], Arrived: rt.Arrived}
				if !want.Arrived {
					t.Fatalf("query %d (src %d → %v): RouteGreedy stopped at %d undelivered",
						i, q.src, q.target, want.Dest)
				}
				av := r.RouteGreedyAvoiding(q.src, q.target, none)
				got := map[string]Result{
					"RouteGreedyAvoiding": {Hops: av.Hops(), Dest: av.Path[len(av.Path)-1], Arrived: av.Arrived},
					"Snapshot":            sr.Route(q.src, q.target),
					"GreedyStep":          stepWalk(snap, q.src, q.target),
				}
				if bd.inc != nil {
					got["incremental"] = bd.inc.Route(q.src, q.target)
				}
				for name, res := range got {
					if res != want {
						t.Fatalf("query %d (src %d → %v): %s %+v, RouteGreedy %+v",
							i, q.src, q.target, name, res, want)
					}
				}
			}
		})
	}
}

// stepWalk drives the snapshot's stepwise API exactly as the sharded
// plane does.
func stepWalk(s *Snapshot, src int, target keyspace.Key) Result {
	d, ok := s.GreedyInit(src, target)
	if !ok {
		return Result{Dest: -1}
	}
	cur, hops := src, 0
	for hops < s.GreedyGuard() {
		next, dNext := s.GreedyStep(cur, d, target)
		if next == -1 {
			break
		}
		hops++
		cur, d = next, dNext
	}
	return Result{Hops: hops, Dest: cur, Arrived: s.GreedyArrived(d, target)}
}

// ulpRun returns count consecutive float64 keys starting at x, one ulp
// apart.
func ulpRun(x float64, count int) []keyspace.Key {
	ks := make([]keyspace.Key, count)
	for i := range ks {
		ks[i] = keyspace.Key(x)
		x = math.Nextafter(x, 2)
	}
	return ks
}
