package main

import (
	"sort"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/overlaynet"
)

const robustChurn = 1000.0 // membership events per second

// robustSys is robust-churn's system under test.
type robustSys struct {
	pub    *overlaynet.Publisher
	model  *netmodel.Model
	router *overlaynet.RobustRouter
	net    *traceNet // nil in an untraced run
}

// robustChurnWorkload: N=2^16 under a lossy fault plane with dead
// nodes, one closed-loop RobustRouter client beside open-loop churn at
// 1000 events/s with the default epoch boundary.
func robustChurnWorkload(r *run) error {
	n := 1 << 16
	if r.cfg.short {
		n = 1 << 11
	}
	faultSeed := r.stream("faults", 0).Uint64()
	routerSeed := r.stream("router", 0).Uint64()
	sys, err := setup(r, setupReps(r.cfg.short), n, func() (*robustSys, error) {
		pub, err := buildOverlay(r, n)
		if err != nil {
			return nil, err
		}
		model, err := netmodel.New(netmodel.Config{Loss: 0.02, DeadFrac: 0.05}, faultSeed)
		if err != nil {
			return nil, err
		}
		pub.SetFaultPlane(model)
		sys := &robustSys{pub: pub, model: model}
		var t overlaynet.Transport = model
		if r.tr != nil {
			sys.net = &traceNet{inner: model, r: r, parent: -1}
			t = sys.net
		}
		sys.router, err = overlaynet.NewRobustRouter(pub.Snapshot(), t, overlaynet.RobustPolicy{}, routerSeed)
		if err != nil {
			return nil, err
		}
		return sys, nil
	}, func(*robustSys) {})
	if err != nil {
		return err
	}
	r.graphMetrics(sys.pub.Snapshot())

	ch := newChurner(r, sys.pub)
	wait := ch.openLoop(robustChurn)
	pinned := sys.pub.Snapshot()
	var keys keyspace.Points // pinned's sorted identifiers, built on first check
	r.loop(1, func(w *worker) {
		tr := r.tr
		req := uint64(w.id)<<40 | w.i
		first := false
		if s := sys.pub.Snapshot(); s != pinned {
			id := int32(-1)
			if w.on {
				id = tr.begin(req, -1, kPin, tidClient)
			}
			sys.router.Rebind(s)
			if id >= 0 {
				tr.end(id)
			}
			pinned, keys, first = s, nil, true
		}
		src := sys.liveSource(w, pinned)
		target := dist.Sample(keyDensity, w.rng)
		traced := w.sampled || (w.on && first)
		id := int32(-1)
		if sys.net != nil {
			sys.net.on = w.on
			if traced {
				id = tr.begin(req, -1, kRobust, tidClient)
				sys.net.parent, sys.net.req = id, req
			}
		}
		t0 := now()
		res := sys.router.RouteRobust(src, target)
		w.done(0, t0)
		w.lookup(res.Hops)
		if id >= 0 {
			var flag uint8
			if first {
				flag = flagFirstRoute
			}
			tr.endWith(id, flag, 0)
			sys.net.parent = -1
		}
		if w.on {
			r.c.routes.Add(1)
			r.c.hops.Add(int64(res.Hops))
			r.c.retries.Add(int64(res.Retries))
			r.c.outcomes[res.Outcome].Add(1)
		}
		if w.checked() {
			mark := now()
			if keys == nil {
				keys = pinned.SortedKeys()
			}
			if w.corrupting() {
				if res.Outcome.Arrived() {
					res.Outcome = overlaynet.Unroutable
				} else {
					res.Outcome = overlaynet.Delivered
				}
			}
			sys.check(r, pinned, keys, src, target, res)
			w.resume(mark)
		}
	})
	wait()
	ch.report()
	return nil
}

// liveSource draws a query source among the pinned snapshot's live
// (unmasked) nodes.
func (s *robustSys) liveSource(w *worker, snap *overlaynet.Snapshot) int {
	n := snap.N()
	src := w.rng.Intn(n)
	for tries := 0; snap.Dead(src) && tries < 64; tries++ {
		src = w.rng.Intn(n)
	}
	return src
}

// check verifies a robust route against the closest live node to the
// target: an arrived route must have stopped at that distance, and a
// route typed timed-out or unroutable must not have.
func (s *robustSys) check(r *run, snap *overlaynet.Snapshot, keys keyspace.Points, src int, target keyspace.Key, res overlaynet.RobustResult) {
	if res.Dest < 0 || res.Dest >= snap.N() {
		if snap.Dead(src) {
			return // every draw hit a dead node; the router refused, as it must
		}
		r.problem("robust lookup %d→%v: destination %d outside the population", src, target, res.Dest)
		return
	}
	live, ok := nearestLive(snap.Topology(), keys, target, s.model.Dead)
	if !ok {
		r.problem("robust lookup %d→%v: no live node", src, target)
		return
	}
	d := snap.Topology().Distance(snap.Key(res.Dest), target)
	if res.Outcome.Arrived() != (d == live) {
		r.problem("robust lookup %d→%v: outcome %v at distance %v, closest live node at %v",
			src, target, res.Outcome, d, live)
	}
}

// nearestLive returns the distance from target to the closest identifier
// in keys (ascending) that dead does not report, scanning outward from
// target's position in both directions.
func nearestLive(topo keyspace.Topology, keys keyspace.Points, target keyspace.Key, dead func(keyspace.Key) bool) (float64, bool) {
	n := len(keys)
	if n == 0 {
		return 0, false
	}
	start := sort.Search(n, func(i int) bool { return keys[i] >= target })
	best, found := 0.0, false
	for _, dir := range []int{1, -1} {
		i := start
		if dir < 0 {
			i--
		}
		for step := 0; step < n; step, i = step+1, i+dir {
			k := keys[(i%n+n)%n]
			if dead(k) {
				continue
			}
			if d := topo.Distance(k, target); !found || d < best {
				best, found = d, true
			}
			break
		}
	}
	return best, found
}
