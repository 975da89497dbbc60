package sim

// This file wires the replicated range store (package store) into the
// simulation as a storage workload: when a Scenario sets Store, every
// load event becomes a storage operation — put, get or ordered range
// scan — instead of a bare routed lookup, and the engine audits the
// store's durability contract against an oracle of every acknowledged
// write. Under a fault plane the operation first flies to the data as a
// per-hop message flight; only a flight that arrives executes the
// operation (a write whose locate failed is not acknowledged and not
// recorded in the oracle — there are no partial writes).
//
// Determinism: all store-side randomness (op mix, oracle read picks,
// chunk cursors, preload keys) comes from a dedicated stream seeded
// Seed^storeSeedSalt, never split from the scenario's master chain, and
// the engine's per-query loadRNG draws (source slot, load target)
// happen in exactly the legacy order before the store takes over. A
// scenario with Store removed therefore replays the exact event
// sequence it always had, and adding Store re-rolls nothing else.

import (
	"fmt"
	"math"
	"sort"

	"smallworld/keyspace"
	"smallworld/overlaynet"
	"smallworld/store"
	"smallworld/xrand"
)

func errStoreField(name string, v float64) error {
	return fmt.Errorf("sim: store %s %v is invalid", name, v)
}

// storeSeedSalt derives the store-side stream from the scenario seed.
// Part of the replay format, like faultSeedSalt.
const storeSeedSalt = 0x6a09e667f3bcc909

// StoreScenario configures the storage workload. The zero value of
// every field means its documented default, so &StoreScenario{} is
// runnable.
type StoreScenario struct {
	// Replicas is the store's R. 0 means store.DefaultReplicas (3).
	Replicas int
	// ValueBytes sizes every written value. Default 64.
	ValueBytes int
	// WriteFrac is the fraction of storage ops that are puts. Default
	// 0.30 (a negative value means no writes).
	WriteFrac float64
	// ScanFrac is the fraction of storage ops that are range scans.
	// Default 0.10. The remainder are gets.
	ScanFrac float64
	// Chunks switches to the sequential-chunk workload: large objects
	// split into ChunkCount adjacent chunk keys, written and read in
	// order with a hot-object skew, occasional seek storms, and scans
	// that fetch runs of consecutive chunks.
	Chunks bool
	// Objects is the number of chunked objects. Default 64.
	Objects int
	// ChunkCount is the number of chunks per object. Default 32.
	ChunkCount int
	// SeekFrac is the probability a read jumps to a random position
	// (a seek) instead of continuing sequentially. Default 0.15.
	SeekFrac float64
}

// The storage workload's fixed shape. Before the clock starts the store
// is preloaded with storePreload keys, so reads and scans have data from
// t=0; a scan covers storeScanSpan of the key space, or storeScanChunks
// consecutive chunks in Chunks mode; and the anti-entropy Sweep backstop
// runs once per metrics window.
const (
	storePreload    = 256
	storeScanSpan   = 0.02
	storeScanChunks = 8
)

// withDefaults resolves zero-valued fields to their documented
// defaults.
func (c StoreScenario) withDefaults() StoreScenario {
	if c.Replicas == 0 {
		c.Replicas = store.DefaultReplicas
	}
	if c.ValueBytes == 0 {
		c.ValueBytes = 64
	}
	if c.WriteFrac == 0 {
		c.WriteFrac = 0.30
	}
	if c.WriteFrac < 0 {
		c.WriteFrac = 0
	}
	if c.ScanFrac == 0 {
		c.ScanFrac = 0.10
	}
	if c.ScanFrac < 0 {
		c.ScanFrac = 0
	}
	if c.Objects <= 0 {
		c.Objects = 64
	}
	if c.ChunkCount <= 0 {
		c.ChunkCount = 32
	}
	if c.SeekFrac == 0 {
		c.SeekFrac = 0.15
	}
	if c.SeekFrac < 0 {
		c.SeekFrac = 0
	}
	return c
}

// validate rejects store configs the workload cannot run on.
func (c StoreScenario) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"write frac", c.WriteFrac},
		{"scan frac", c.ScanFrac},
		{"seek frac", c.SeekFrac},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return errStoreField(f.name, f.v)
		}
	}
	if c.Replicas < 0 {
		return errStoreField("replicas", float64(c.Replicas))
	}
	if c.WriteFrac+c.ScanFrac > 1 {
		return errStoreField("write+scan frac", c.WriteFrac+c.ScanFrac)
	}
	return nil
}

// Storage op kinds carried by message flights. opNone marks a plain
// routed lookup (no store configured).
const (
	opNone uint8 = iota
	opPut
	opGet
	opScan
)

// chunkSpacing is the key-space gap between consecutive chunks of one
// object — small enough that a whole object occupies a negligible arc,
// large enough that float64 keys stay exactly distinct.
const chunkSpacing = 1e-9

// engineSource adapts the engine to store.Source: the store reads
// membership through snapshots the engine memoises per epoch.
type engineSource struct{ e *Engine }

func (s engineSource) Snapshot() *overlaynet.Snapshot { return s.e.snapshot() }

// snapshot returns an immutable capture of the overlay's current state,
// rebuilt lazily when membership (or maintenance) bumped the epoch.
func (e *Engine) snapshot() *overlaynet.Snapshot {
	if e.snap == nil || e.snapEpoch != e.epoch {
		e.snap = overlaynet.NewSnapshot(e.ov)
		e.snapEpoch = e.epoch
	}
	return e.snap
}

// storeState is the engine-side runtime of the storage workload.
type storeState struct {
	cfg    StoreScenario
	st     *store.Store
	rng    *xrand.Stream
	topo   keyspace.Topology // fixed geometry; scan ranges must respect it
	events bool              // the overlay narrates churn; handover is event-driven

	// pending buffers OwnershipChange events emitted synchronously
	// inside the overlay's Join/Leave, drained right after the engine
	// observes the membership change.
	pending []overlaynet.OwnershipChange

	// The durability oracle: every acknowledged write's stamp, plus a
	// sorted key index for range expectations.
	oracle     map[keyspace.Key]store.Stamp
	oracleKeys keyspace.Points

	churnEvents int64
	opsFailed   int64 // flights that never reached the data
	staleReads  int64 // oracle reads that saw a lost/older version
	scanBad     int64 // scans that missed an acked key

	// Per-window accumulators, reset by closeWindow.
	winOps    int
	winChecks int // oracle-audited reads this window
	winLost   int
	winScans  int
	winScanOK int
	lastBytes int64 // Stats().BytesMoved at the last window edge

	// Chunk-workload state: object base keys, per-object write cursors,
	// and the sequential read head.
	bases  []keyspace.Key
	wNext  []int
	rObj   int
	rChunk int
}

// initStore builds the storage workload. Called from newEngine after
// the fault plane (if any) exists, so stream assignment stays fixed.
func (e *Engine) initStore() {
	cfg := e.sc.Store.withDefaults()
	ss := &storeState{
		cfg:    cfg,
		rng:    xrand.New(e.sc.Seed ^ storeSeedSalt),
		topo:   e.snapshot().Topology(),
		oracle: make(map[keyspace.Key]store.Stamp),
	}
	rep, ok := e.ov.(overlaynet.OwnershipReporter)
	if ok {
		rep.SetOwnershipWatcher(func(ch overlaynet.OwnershipChange) {
			ss.pending = append(ss.pending, ch)
		})
		ss.events = true
	}
	st, err := store.New(engineSource{e}, store.Config{Replicas: cfg.Replicas, EventDriven: ss.events})
	if err != nil {
		e.fail(err)
		return
	}
	ss.st = st
	if e.sc.Obs != nil || e.sc.Tracer != nil {
		st.SetObs(e.sc.Obs, e.sc.Tracer)
	}
	if cfg.Chunks {
		ss.bases = make([]keyspace.Key, cfg.Objects)
		ss.wNext = make([]int, cfg.Objects)
		for i := range ss.bases {
			ss.bases[i] = keyspace.Key(ss.rng.Float64())
		}
	}
	e.store = ss
	ss.preload(e)
}

// preload seeds the store before the clock starts; preload writes cost
// no locate hops and are not recorded as queries, but they do enter the
// durability oracle.
func (ss *storeState) preload(e *Engine) {
	for i := 0; i < storePreload; i++ {
		var k keyspace.Key
		if ss.cfg.Chunks {
			obj := i % ss.cfg.Objects
			j := ss.wNext[obj] % ss.cfg.ChunkCount
			ss.wNext[obj]++
			k = ss.chunkKey(obj, j)
		} else {
			k = e.sc.Load.target(ss.rng)
		}
		ss.write(-1, k)
	}
}

func (ss *storeState) chunkKey(obj, j int) keyspace.Key {
	return keyspace.Wrap(float64(ss.bases[obj]) + float64(j)*chunkSpacing)
}

// makeValue builds a deterministic value for k (an LCG over the key's
// bit pattern), sized by ValueBytes. A fresh slice per write — the
// store holds values by reference.
func (ss *storeState) makeValue(k keyspace.Key) []byte {
	v := make([]byte, ss.cfg.ValueBytes)
	bits := math.Float64bits(float64(k))
	for i := range v {
		bits = bits*6364136223846793005 + 1442695040888963407
		v[i] = byte(bits >> 56)
	}
	return v
}

// write performs one put and records the acknowledgement in the oracle.
func (ss *storeState) write(src int, k keyspace.Key) store.PutResult {
	res := ss.st.Put(src, k, ss.makeValue(k))
	if res.Acked {
		if _, tracked := ss.oracle[k]; !tracked {
			ss.insertOracleKey(k)
		}
		ss.oracle[k] = res.Stamp
	}
	return res
}

func (ss *storeState) insertOracleKey(k keyspace.Key) {
	keys := ss.oracleKeys
	i := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
	keys = append(keys, 0)
	copy(keys[i+1:], keys[i:])
	keys[i] = k
	ss.oracleKeys = keys
}

// membership runs after every join/leave the engine observes: drain the
// ownership events (event mode) or snapshot-diff (default), either way
// re-pinning the store to the fresh epoch.
func (ss *storeState) membership() {
	ss.churnEvents++
	for _, ch := range ss.pending {
		ss.st.ApplyChange(ch)
	}
	ss.pending = ss.pending[:0]
	ss.st.Sync()
}

// runOp turns one load event into a storage operation. src and target
// were already drawn from loadRNG in the legacy order; everything else
// draws from the store stream.
func (ss *storeState) runOp(e *Engine, src int, target keyspace.Key) {
	op, key, span := ss.drawOp(target)
	if e.model != nil {
		// Fly to the data first; the op executes on arrival.
		e.startFlightOp(src, key, op, span)
		return
	}
	ss.winOps++
	hops, ok := ss.perform(src, op, key, span)
	res := overlaynet.Result{Hops: hops, Dest: -1, Arrived: ok}
	e.rec.query(e.now, res)
	if e.obsReg != nil {
		e.observeQuery(res)
	}
}

// drawOp picks the op kind from the configured mix and resolves its
// key (and scan span), all from the store stream.
func (ss *storeState) drawOp(target keyspace.Key) (op uint8, key keyspace.Key, span float64) {
	r := ss.rng.Float64()
	switch {
	case r < ss.cfg.WriteFrac:
		op = opPut
	case r < ss.cfg.WriteFrac+ss.cfg.ScanFrac:
		op = opScan
	default:
		op = opGet
	}
	if ss.cfg.Chunks {
		return ss.drawChunkOp(op)
	}
	switch op {
	case opGet:
		// Read what was written: audit a known acked key when one
		// exists, otherwise probe the load target.
		if n := len(ss.oracleKeys); n > 0 {
			return op, ss.oracleKeys[ss.rng.Intn(n)], 0
		}
		return op, target, 0
	case opScan:
		return op, target, storeScanSpan
	}
	return op, target, 0
}

// hotObject skews object picks toward low indices (u³ concentrates ~58%
// of the mass on the first fifth) — the popularity skew of a
// channel-style chunk workload.
func (ss *storeState) hotObject() int {
	u := ss.rng.Float64()
	obj := int(float64(ss.cfg.Objects) * u * u * u)
	if obj >= ss.cfg.Objects {
		obj = ss.cfg.Objects - 1
	}
	return obj
}

// drawChunkOp resolves an op against the chunk workload: sequential
// writes per object, a sequential read head with seek storms, and scans
// over runs of consecutive chunks.
func (ss *storeState) drawChunkOp(op uint8) (uint8, keyspace.Key, float64) {
	cfg := &ss.cfg
	switch op {
	case opPut:
		obj := ss.hotObject()
		j := ss.wNext[obj] % cfg.ChunkCount
		ss.wNext[obj]++
		return opPut, ss.chunkKey(obj, j), 0
	case opScan:
		obj := ss.hotObject()
		j := ss.rng.Intn(cfg.ChunkCount)
		return opScan, ss.chunkKey(obj, j), storeScanChunks * chunkSpacing
	}
	// Sequential read; a seek jumps the head to a random hot position.
	if ss.rng.Float64() < cfg.SeekFrac {
		ss.rObj = ss.hotObject()
		ss.rChunk = ss.rng.Intn(cfg.ChunkCount)
	}
	k := ss.chunkKey(ss.rObj, ss.rChunk)
	ss.rChunk++
	if ss.rChunk >= cfg.ChunkCount {
		ss.rChunk = 0
		ss.rObj = (ss.rObj + 1) % cfg.Objects
	}
	return opGet, k, 0
}

// perform executes one storage op and audits it against the oracle.
// It returns the op's overlay hop cost and whether it succeeded —
// a put acked, a read not stale, a scan complete.
func (ss *storeState) perform(src int, op uint8, key keyspace.Key, span float64) (hops int, ok bool) {
	switch op {
	case opPut:
		res := ss.write(src, key)
		return res.Hops, res.Acked
	case opGet:
		res := ss.st.Get(src, key)
		if want, tracked := ss.oracle[key]; tracked {
			ss.winChecks++
			if !res.Found || res.Stamp.Less(want) {
				ss.winLost++
				ss.staleReads++
				return res.Hops, false
			}
		}
		return res.Hops, true
	case opScan:
		iv := ss.scanInterval(key, span)
		res := ss.st.Scan(src, iv)
		ss.winScans++
		if ss.scanMatches(iv, res) {
			ss.winScanOK++
			return res.Hops, true
		}
		ss.scanBad++
		return res.Hops, false
	}
	return 0, false
}

// scanInterval turns (start, span) into the scan range for the run's
// geometry. On the ring the range wraps past 1; the line has no wrap,
// so a range reaching past the top of the key space clamps at 1 — a
// wrapped interval on a line would ask the store for keys no walk from
// iv.Lo can reach.
func (ss *storeState) scanInterval(key keyspace.Key, span float64) keyspace.Interval {
	hi := float64(key) + span
	if ss.topo == keyspace.Line {
		if hi > 1 {
			hi = 1
		}
		return keyspace.Interval{Lo: key, Hi: keyspace.Key(hi)}
	}
	return keyspace.Interval{Lo: key, Hi: keyspace.Wrap(hi)}
}

// scanMatches checks a scan against the oracle: every acked key inside
// iv must come back at its acked stamp or newer.
func (ss *storeState) scanMatches(iv keyspace.Interval, res store.ScanResult) bool {
	n := len(ss.oracleKeys)
	if n == 0 || iv.Empty() {
		return true
	}
	got := make(map[keyspace.Key]store.Stamp, len(res.KVs))
	for _, kv := range res.KVs {
		got[kv.Key] = kv.Stamp
	}
	i := ss.oracleKeys.Successor(iv.Lo)
	for step := 0; step < n; step++ {
		k := ss.oracleKeys[i]
		if !iv.Contains(k) {
			break
		}
		if st, ok := got[k]; !ok || st.Less(ss.oracle[k]) {
			return false
		}
		i++
		if i == n {
			i = 0
		}
	}
	return true
}

// completeFlight finishes a storage flight: an arrived flight executes
// its op (locate already paid in flight hops), a failed one records a
// failed op — and, for puts, writes nothing: no partial writes.
func (ss *storeState) completeFlight(f *flight, o overlaynet.Outcome, hops int) (overlaynet.Outcome, int) {
	ss.winOps++
	if !o.Arrived() {
		ss.opsFailed++
		return o, hops
	}
	opHops, ok := ss.perform(-1, f.op, f.opKey, f.opSpan)
	if !ok && o == overlaynet.Delivered {
		o = overlaynet.DeliveredDegraded
	}
	return o, hops + opHops
}

// audit runs the end-of-run durability check: every acked write must
// still be readable at its acked stamp from the key's current replica
// set.
func (ss *storeState) audit() (lost int) {
	for _, k := range ss.oracleKeys {
		st, ok := ss.st.Newest(k)
		if !ok || st.Less(ss.oracle[k]) {
			lost++
		}
	}
	return lost
}

// totals assembles the run-level store report block.
func (ss *storeState) totals() *StoreTotals {
	s := ss.st.Stats()
	t := &StoreTotals{
		Replicas:       ss.st.Replicas(),
		Puts:           s.Puts,
		AckedWrites:    s.AckedWrites,
		Gets:           s.Gets,
		Scans:          s.Scans,
		OpsFailed:      ss.opsFailed,
		StaleReads:     ss.staleReads,
		ScanMismatches: ss.scanBad,
		LostAcked:      ss.audit(),
		Keys:           len(ss.oracleKeys),
		ReadRepairs:    s.ReadRepairs,
		Rereplicated:   s.Rereplicated,
		Trimmed:        s.Trimmed,
		BytesMoved:     s.BytesMoved,
		Sweeps:         s.Sweeps,
		BacklogEnd:     ss.st.Backlog(),
	}
	if ss.churnEvents > 0 {
		t.BytesPerChurn = float64(s.BytesMoved) / float64(ss.churnEvents)
	}
	return t
}
