package main

import (
	"context"
	"fmt"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/overlaynet"
	"smallworld/overlaynet/shard"
	"smallworld/wire"
)

// keyDensity is the identifier and lookup-target density of every
// workload: power:0.7, a strongly skewed key space.
var keyDensity = dist.NewPower(0.7)

// setupReps is how many times a run builds its system to time set-up.
func setupReps(short bool) int {
	if short {
		return 1
	}
	return 3
}

// buildOverlay builds the incremental skewed small-world ring all four
// workloads serve from, and publishes it.
func buildOverlay(r *run, n int, opts ...overlaynet.PublisherOption) (*overlaynet.Publisher, error) {
	seed := r.stream("overlay", 0).Uint64()
	dyn, err := overlaynet.NewIncremental(context.Background(), "smallworld-skewed",
		overlaynet.Options{N: n, Seed: seed, Dist: keyDensity, Topology: keyspace.Ring})
	if err != nil {
		return nil, fmt.Errorf("build overlay: %w", err)
	}
	return overlaynet.NewPublisher(dyn, opts...)
}

// corrupting reports whether the result being checked is to be
// falsified: true once, on worker 0's first check, under the test hook
// that proves a wrong answer fails the run.
func (w *worker) corrupting() bool {
	if !w.r.cfg.corrupt || w.id != 0 || w.corrupted {
		return false
	}
	w.corrupted = true
	return true
}

// checkDest checks that a lookup that arrived stopped at a node as close
// to the target as the snapshot's responsible node.
func checkDest(r *run, s *overlaynet.Snapshot, src int, target keyspace.Key, res overlaynet.Result) {
	want := s.Responsible(target)
	topo := s.Topology()
	if res.Dest < 0 || res.Dest >= s.N() ||
		topo.Distance(s.Key(res.Dest), target) != topo.Distance(s.Key(want), target) {
		r.problem("lookup %d→%v ended at %d, responsible node is %d", src, target, res.Dest, want)
	}
}

// repinEvery is how many queries a lookup-large worker routes between
// re-pins to the publisher's current snapshot.
const repinEvery = 512

// lookupLarge: frozen N=2^20, two closed-loop SnapshotRouter workers.
func lookupLarge(r *run) error {
	n := 1 << 20
	if r.cfg.short {
		n = 1 << 12
	}
	pub, err := setup(r, setupReps(r.cfg.short), n,
		func() (*overlaynet.Publisher, error) { return buildOverlay(r, n) },
		func(*overlaynet.Publisher) {})
	if err != nil {
		return err
	}
	r.graphMetrics(pub.Snapshot())
	tr := r.tr
	routers := make([]*overlaynet.SnapshotRouter, 2)
	for i := range routers {
		routers[i] = pub.Snapshot().NewRouter().(*overlaynet.SnapshotRouter)
	}
	r.loop(len(routers), func(w *worker) {
		rt := routers[w.id]
		tid := tidClient + int32(w.id)
		req := uint64(w.id)<<40 | w.i
		if w.i%repinEvery == 0 {
			id := int32(-1)
			if w.on {
				id = tr.begin(req, -1, kPin, tid)
			}
			rt.Rebind(pub.Snapshot())
			if id >= 0 {
				tr.end(id)
			}
		}
		src := w.rng.Intn(n)
		target := dist.Sample(keyDensity, w.rng)
		id := int32(-1)
		if w.sampled {
			id = tr.begin(req, -1, kRoute, tid)
		}
		t0 := now()
		res := rt.Route(src, target)
		w.done(0, t0)
		w.lookup(res.Hops)
		if id >= 0 {
			tr.end(id)
			replayGreedy(w, rt.Pinned(), req, src, target, res)
		}
		if w.on {
			r.c.routes.Add(1)
			r.c.hops.Add(int64(res.Hops))
		}
		if !res.Arrived {
			r.problem("lookup %d→%v did not arrive", src, target)
		}
		if w.checked() {
			mark := now()
			if w.corrupting() {
				res.Dest = (res.Dest + 1) % n
			}
			checkDest(r, rt.Pinned(), src, target, res)
			w.resume(mark)
		}
	})
	c := newChurner(r, pub)
	c.probe(1024)
	c.report()
	return nil
}

// replayGreedy re-walks a sampled route hop by hop through the stepwise
// GreedyInit/GreedyStep API, timing the walk for the per-step cost, and
// checks that it reproduces the route.
func replayGreedy(w *worker, s *overlaynet.Snapshot, req uint64, src int, target keyspace.Key, res overlaynet.Result) {
	t0 := now()
	d, ok := s.GreedyInit(src, target)
	cur, hops := src, 0
	for ok && hops < s.GreedyGuard() {
		next, dn := s.GreedyStep(cur, d, target)
		if next == -1 {
			break
		}
		hops, cur, d = hops+1, next, dn
	}
	w.r.tr.add(span{req: req, parent: -1, kind: kReplay, tid: tidClient + int32(w.id),
		start: t0, end: now(), n: int32(hops)})
	if cur != res.Dest || hops != res.Hops {
		w.r.problem("stepwise replay of %d→%v gave (%d, %d hops), route gave (%d, %d hops)",
			src, target, cur, hops, res.Dest, res.Hops)
	}
}

// shardSys is lookup-sharded's system under test.
type shardSys struct {
	pub     *overlaynet.Publisher
	tr      wire.Transport
	clients []*shard.Client
}

const shardCount = 4

// lookupSharded: frozen N=2^14, a 4-shard cluster over the channel
// wire, two closed-loop shard clients.
func lookupSharded(r *run) error {
	n := 1 << 14
	if r.cfg.short {
		n = 1 << 10
	}
	sys, err := setup(r, setupReps(r.cfg.short), n, func() (*shardSys, error) {
		pub, err := buildOverlay(r, n)
		if err != nil {
			return nil, err
		}
		var t wire.Transport = wire.NewChan()
		if r.tr != nil {
			t = newTraceWire(t, r, shardCount)
		}
		cl, err := shard.New(pub, shard.Config{Shards: shardCount, Transport: t})
		if err != nil {
			t.Close()
			return nil, err
		}
		sys := &shardSys{pub: pub, tr: t}
		for i := 0; i < 2; i++ {
			c, err := cl.NewClient()
			if err != nil {
				t.Close()
				return nil, err
			}
			sys.clients = append(sys.clients, c)
		}
		return sys, nil
	}, func(s *shardSys) { s.tr.Close() })
	if err != nil {
		return err
	}
	r.graphMetrics(sys.pub.Snapshot())
	tr := r.tr
	refs := make([]*overlaynet.SnapshotRouter, len(sys.clients))
	for i, c := range sys.clients {
		refs[i] = c.Pinned().NewRouter().(*overlaynet.SnapshotRouter)
	}
	r.loop(len(sys.clients), func(w *worker) {
		cl := sys.clients[w.id]
		src := w.rng.Intn(n)
		target := dist.Sample(keyDensity, w.rng)
		req := shardReq(uint32(w.id), w.i)
		root := int32(-1)
		if w.sampled {
			root = tr.begin(req, -1, kClient, tidClient+int32(w.id))
			tr.mu.Lock()
			tr.roots[req] = root
			tr.mu.Unlock()
		}
		t0 := now()
		res := cl.Route(src, target)
		w.done(0, t0)
		w.lookup(res.Hops)
		if root >= 0 {
			tr.end(root)
			tr.mu.Lock()
			delete(tr.roots, req)
			delete(tr.sent, req)
			tr.mu.Unlock()
		}
		if w.on {
			r.c.routes.Add(1)
			r.c.hops.Add(int64(res.Hops))
			r.c.crossings.Add(int64(cl.Crossings()))
		}
		if !res.Arrived {
			r.problem("sharded lookup %d→%v did not arrive", src, target)
		}
		if w.checked() {
			mark := now()
			if w.corrupting() {
				res.Hops++
			}
			if ref := refs[w.id].Route(src, target); ref != res {
				r.problem("sharded lookup %d→%v gave %+v, in-process router %+v", src, target, res, ref)
			}
			checkDest(r, cl.Pinned(), src, target, res)
			w.resume(mark)
		}
	})
	if err := sys.tr.Close(); err != nil {
		return fmt.Errorf("close wire: %w", err)
	}
	c := newChurner(r, sys.pub)
	c.probe(8192)
	c.report()
	return nil
}
