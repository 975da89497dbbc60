package main

import (
	"fmt"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/overlaynet"
	"smallworld/store"
)

// Op kinds of store-churn (indexes of worker.kinds).
const (
	opPut = iota
	opGet
	opScan
)

var opNames = [3]string{"put", "get", "scan"}

const (
	valueBytes = 128
	scanWidth  = 5e-4
	storeChurn = 5.0 // membership events per second
)

// storeSys is store-churn's system under test.
type storeSys struct {
	pub    *overlaynet.Publisher
	st     *store.Store
	loc    *traceLocator // nil in an untraced run
	ch     *churner
	keys   keyspace.Points // the universe, ascending
	acked  []store.Stamp   // newest acked stamp per universe key
	values [][]byte        // immutable values the client writes
}

// storeChurn: N=4096, R=3 event-driven store with batched handover over
// a preloaded universe; one closed-loop client (30% put, 60% get, 10%
// scan) beside open-loop Poisson churn.
func storeChurnWorkload(r *run) error {
	n, universe := 4096, 32768
	if r.cfg.short {
		n, universe = 256, 2048
	}
	kr := r.stream("universe", 0)
	keys := keyspace.SortPoints(dist.SampleN(keyDensity, kr, universe))
	w := 1
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[w-1] {
			keys[w] = keys[i]
			w++
		}
	}
	keys = keys[:w]
	values := make([][]byte, 256)
	for i := range values {
		values[i] = make([]byte, valueBytes)
		for j := range values[i] {
			values[i][j] = byte(kr.Uint64())
		}
	}

	sys, err := setup(r, setupReps(r.cfg.short), n, func() (*storeSys, error) {
		pub, err := buildOverlay(r, n, overlaynet.PublishEvery(1))
		if err != nil {
			return nil, err
		}
		sys := &storeSys{pub: pub, ch: newChurner(r, pub), keys: keys, values: values,
			acked: make([]store.Stamp, len(keys))}
		var loc store.Locator = pub.Snapshot().NewRouter().(*overlaynet.SnapshotRouter)
		if r.tr != nil {
			sys.loc = &traceLocator{inner: loc.(*overlaynet.SnapshotRouter), r: r, parent: -1}
			loc = sys.loc
		}
		st, err := store.New(pub, store.Config{Replicas: 3, EventDriven: true, BatchHandover: true, Locator: loc})
		if err != nil {
			return nil, err
		}
		sys.st = st
		if r.tr != nil {
			pub.SetOwnershipWatcher(traceWatcher(sys.ch, st))
		} else {
			pub.SetOwnershipWatcher(st.ApplyChange)
		}
		for i, k := range keys {
			res := st.Put(-1, k, values[i%len(values)])
			if !res.Acked {
				return nil, fmt.Errorf("preload put %v not acked", k)
			}
			sys.acked[i] = res.Stamp
		}
		return sys, nil
	}, func(*storeSys) {})
	if err != nil {
		return err
	}
	r.graphMetrics(sys.pub.Snapshot())

	s0 := sys.st.Stats()
	wait := sys.ch.openLoop(storeChurn)
	ws := r.loop(1, func(w *worker) { sys.op(w) })
	wait()
	s1 := sys.st.Stats()
	sys.ch.report()
	if ev := sys.ch.total; ev > 0 {
		r.set("store.rereplicated_per_event", float64(s1.Rereplicated-s0.Rereplicated)/float64(ev))
		r.set("store.bytes_moved_per_event", float64(s1.BytesMoved-s0.BytesMoved)/float64(ev))
		r.set("store.transfers_per_event", float64(s1.Transfers-s0.Transfers)/float64(ev))
	}
	for k, h := range ws[0].kinds {
		r.res.notes = append(r.res.notes, fmt.Sprintf("%s: %d ops, p50 %.2f us, p99 %.2f us",
			opNames[k], h.n, h.quantile(0.5)/1e3, h.tail(0.99)/1e3))
	}
	return nil
}

// op issues one store request.
func (s *storeSys) op(w *worker) {
	r := w.r
	src := w.rng.Intn(s.pub.N())
	u := w.rng.Float64()
	kind := opScan
	switch {
	case u < 0.3:
		kind = opPut
	case u < 0.9:
		kind = opGet
	}
	j := w.rng.Intn(len(s.keys))
	k := s.keys[j]
	lo := dist.Sample(keyDensity, w.rng)

	req := uint64(w.id)<<40 | w.i
	id := int32(-1)
	if w.sampled {
		id = r.tr.begin(req, -1, kPut+spanKind(kind), tidClient)
		s.loc.parent, s.loc.req = id, req
	}
	var hops int
	t0 := now()
	switch kind {
	case opPut:
		res := s.st.Put(src, k, s.values[w.i%uint64(len(s.values))])
		w.done(kind, t0)
		w.lookup(res.Hops)
		hops = res.Hops
		if !res.Acked {
			r.problem("put %v not acked", k)
		} else if s.acked[j].Less(res.Stamp) {
			s.acked[j] = res.Stamp
		}
	case opGet:
		res := s.st.Get(src, k)
		w.done(kind, t0)
		w.lookup(res.Hops)
		hops = res.Hops
		if w.checked() {
			mark := now()
			if w.corrupting() {
				res.Stamp = store.Stamp{}
			}
			if !res.Found || res.Stamp.Less(s.acked[j]) {
				r.problem("get %v returned %+v (found %v), acked %+v", k, res.Stamp, res.Found, s.acked[j])
			}
			w.resume(mark)
		} else if !res.Found {
			r.problem("get %v found nothing", k)
		}
	case opScan:
		iv := keyspace.Interval{Lo: lo, Hi: keyspace.Wrap(float64(lo) + scanWidth)}
		res := s.st.Scan(src, iv)
		w.done(kind, t0)
		hops = res.Hops
		if w.on {
			r.c.scans.Add(1)
			r.c.scanKVs.Add(int64(len(res.KVs)))
			r.c.scanCells.Add(int64(res.Cells))
		}
		if w.checked() {
			mark := now()
			kvs := res.KVs
			if w.corrupting() {
				kvs = append(kvs, store.KV{Key: iv.Lo})
			}
			s.checkScan(r, iv, kvs)
			w.resume(mark)
		}
	}
	if id >= 0 {
		r.tr.end(id)
		s.loc.parent = -1
	}
	if w.on {
		r.c.storeOps.Add(1)
		r.c.storeHops.Add(int64(hops))
	}
}

// checkScan checks a scan against the oracle: it must return exactly the
// universe keys inside iv, in arc order from iv.Lo, each at least as new
// as its acked stamp.
func (s *storeSys) checkScan(r *run, iv keyspace.Interval, kvs []store.KV) {
	var want []int
	for i, step := s.keys.Successor(iv.Lo), 0; step < len(s.keys) && iv.Contains(s.keys[i]); step++ {
		want = append(want, i)
		i = (i + 1) % len(s.keys)
	}
	if len(kvs) != len(want) {
		r.problem("scan %v returned %d keys, oracle holds %d", iv, len(kvs), len(want))
		return
	}
	for p, j := range want {
		if kvs[p].Key != s.keys[j] || kvs[p].Stamp.Less(s.acked[j]) {
			r.problem("scan %v position %d: got %v@%+v, want %v@%+v or newer",
				iv, p, kvs[p].Key, kvs[p].Stamp, s.keys[j], s.acked[j])
			return
		}
	}
}
