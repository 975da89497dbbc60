// Package store is the replicated range-store data plane over the
// small-world overlay: put/get/scan on keys in [0,1), each key
// replicated to the R rank-index successors of its responsible node,
// with key/value handover on churn. Ownership comes from the single
// shared definition in keyspace.Cell/Owner (the same math the
// incremental writer's ownership events use), so the store and the
// overlay can never disagree about who holds what.
//
// # Consistency model
//
// The store offers per-key ordering and nothing more: every write gets
// a monotone (epoch, seq) Stamp, replicas converge to the
// newest-stamped value via read-repair and the anti-entropy Sweep, and
// a Get returns the newest stamp among the key's current replica set.
// There are no cross-key transactions, no read-your-writes across
// membership changes mid-repair, and no durability beyond R-1
// simultaneous failures: a Leave is a crash (the departed node's copies
// are gone), and the store immediately re-replicates the affected
// window from the survivors.
//
// # Following the overlay
//
// The store reads membership from a Source — anything with a
// Snapshot() method, typically an overlaynet.Publisher. Two tracking
// modes:
//
//   - Event-driven (Config.EventDriven): the overlay narrates churn as
//     overlaynet.OwnershipChange events which the caller feeds to
//     ApplyChange (wire pub.SetOwnershipWatcher(st.ApplyChange)).
//     Handover is surgical — only the range that changed hands moves.
//   - Snapshot diff (default): each operation first diffs the current
//     snapshot's population against the store's member list and
//     repairs around every arrival and departure it finds.
//
// Sweep is the backstop for both: a full anti-entropy pass that
// re-replicates every under-replicated key and trims copies parked on
// nodes outside the key's replica set.
//
// # Storage layout
//
// Copies are stored per key, not per node. Each key has a record: its
// copies as (holder, version) pairs sorted by holder identifier. The
// records sit in one key-ordered table of blocks, each holding up to 128
// consecutive stored keys and their records side by side, and a list of
// the blocks' first keys finds the block; beside the table, each member
// has the sorted list of keys it holds. A Get or Put finds its record
// with two binary searches, one over the blocks and one inside a block,
// and a key's first Put shifts at most one block. A range read — a
// Scan, a handover's repair window, a Sweep — walks the records in
// place in key order. A Scan keeps one cursor across the cells it
// visits and takes each cell's replica set from the cell's rank:
// O(log K + cells + keys read × copies) for K stored keys. A membership
// event's handover walks its repair window the same way, in
// O(log K + window keys × (log N + copies)); a departure drops the
// node's copies through its held-key list.
//
// # Locking
//
// One mutex guards the data and the member list. A membership event
// cannot return until ApplyChange has handed the changed range over, and
// until then the store's member list lags the overlay's, so events get
// priority on that mutex through a second one, the gate. ApplyChange
// holds the gate while it waits for the mutex; every other entry point
// locks and releases the gate before it takes the mutex. A handover then
// waits only for the operation in progress and, per client, at most one
// that had already passed the gate. Without the gate, a closed-loop
// client re-takes the freed mutex ahead of the woken event until Go's
// mutex enters starvation mode after 1 ms. Operations still meet on the
// mutex alone, in its normal mode.
package store

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"smallworld/keyspace"
	"smallworld/obs"
	"smallworld/overlaynet"
)

// Source supplies the membership views the store places data against.
// *overlaynet.Publisher implements it; any snapshot holder will do.
type Source interface {
	Snapshot() *overlaynet.Snapshot
}

// Config parameterises a Store.
type Config struct {
	// Replicas is R: each key lives on the responsible node and its R-1
	// rank successors. 0 means the default of 3; populations smaller
	// than R hold every key everywhere.
	Replicas int
	// EventDriven selects the ownership-event tracking mode: membership
	// changes arrive via ApplyChange instead of snapshot diffing. The
	// caller must then actually deliver the events (see package doc).
	EventDriven bool
	// Locator, when non-nil, replaces the store's private
	// SnapshotRouter for locate routes: every Put/Get/Scan resolves its
	// owner through it, and the store rebinds it at each snapshot
	// adoption. A shard.Client here turns every locate into messages
	// across a shard cluster — with bit-identical hop counts, per the
	// shard plane's contract.
	Locator Locator
	// ShardOf, when non-nil, labels each member with its owning shard
	// for handover accounting: repair copies whose source and
	// destination members live in different shards count into
	// Stats.CrossShardMoves. Nil costs nothing.
	ShardOf func(keyspace.Key) int
	// BatchHandover coalesces handover/sweep repair copies into one
	// bulk transfer per (membership event, destination member) instead
	// of one transfer per key copy — Stats.Transfers shows the
	// reduction. The copies themselves (which keys move where, their
	// byte payloads, Stats.BytesMoved) are identical either way.
	BatchHandover bool
}

// Locator routes a store's locate operations and follows the store
// across snapshot adoptions. *overlaynet.SnapshotRouter and
// *shard.Client implement it.
type Locator interface {
	overlaynet.Router
	Rebind(*overlaynet.Snapshot)
}

// DefaultReplicas is R when Config.Replicas is zero.
const DefaultReplicas = 3

// Stamp is a per-key version: Epoch counts the membership views the
// store has observed, Seq is a global monotone write counter. Stamps
// order lexicographically; replicas converge to the largest.
type Stamp struct {
	Epoch uint64
	Seq   uint64
}

// Less orders stamps lexicographically.
func (a Stamp) Less(b Stamp) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch < b.Epoch
	}
	return a.Seq < b.Seq
}

// KV is one scanned key/value pair with its version stamp.
type KV struct {
	Key   keyspace.Key
	Val   []byte
	Stamp Stamp
}

// Stats counts the store's work since construction. Monotone.
type Stats struct {
	Puts         int64 // Put calls
	AckedWrites  int64 // Puts acknowledged (all in-population replicas written)
	Gets         int64 // Get calls
	Scans        int64 // Scan calls
	ReadRepairs  int64 // replica copies fixed on the read path
	Rereplicated int64 // replica copies restored by handover/sweep
	Trimmed      int64 // copies removed from nodes outside the replica set
	BytesMoved   int64 // value bytes copied between nodes for repair
	Sweeps       int64 // anti-entropy passes
	// Transfers counts the bulk movements that carried handover/sweep
	// repair copies: one per copy unbatched, one per (membership event,
	// destination member) with Config.BatchHandover. Read repairs are
	// point fixes and never count here.
	Transfers int64
	// CrossShardMoves counts handover copies whose source and
	// destination members belong to different shards (Config.ShardOf).
	CrossShardMoves int64
}

// PutResult reports one write.
type PutResult struct {
	// Acked is true when every replica in the current population took
	// the write — the durability contract the sim's oracle audits.
	Acked bool
	// Stamp is the version the write was assigned.
	Stamp Stamp
	// Hops is the overlay cost: the greedy locate route to the
	// responsible node plus one hop per additional replica.
	Hops int
	// Replicas is how many copies were written (min(R, N)).
	Replicas int
}

// GetResult reports one read.
type GetResult struct {
	Found bool
	Val   []byte
	Stamp Stamp
	// Hops is locate plus one hop per extra replica consulted.
	Hops int
	// Repaired counts stale/missing replica copies fixed by this read.
	Repaired int
}

// ScanResult reports one ordered range read.
type ScanResult struct {
	// KVs holds the newest version of every key in the interval, in
	// ascending key order along the interval's arc from iv.Lo —
	// monotone in arc displacement even when the interval wraps the
	// ring.
	KVs []KV
	// Hops is locate plus one successor hop per additional cell walked.
	// On the line a wrapping interval is read as two walks, [Lo, 1) and
	// then [0, Hi), and the second adds its own locate from src toward
	// key 0.
	Hops int
	// Cells is how many responsibility cells the walk visited.
	Cells int
	// Repaired counts replica copies fixed during the scan.
	Repaired int
}

// entry is one stored version.
type entry struct {
	val   []byte
	stamp Stamp
}

// replica is one stored copy of a key: the member holding it and the
// version it holds. Holders are member identifiers, not slot indexes or
// ranks — identifiers are stable across the overlay's slot renames and
// the store's own rank shifts.
type replica struct {
	holder keyspace.Key
	entry
}

// holding returns the index of holder's copy in rec, -1 when it holds
// none.
func holding(rec []replica, holder keyspace.Key) int {
	for i := range rec {
		if rec[i].holder == holder {
			return i
		}
	}
	return -1
}

// newest returns the newest copy in rec: its version and its holder,
// the lowest holder id among equal stamps. rec must be non-empty.
func newest(rec []replica) (entry, keyspace.Key) {
	best, from := rec[0].entry, rec[0].holder
	for _, c := range rec[1:] {
		if best.stamp.Less(c.stamp) {
			best, from = c.entry, c.holder
		}
	}
	return best, from
}

// newestOn returns the newest copy of rec held by holders — the first
// such holder's on equal stamps — whether any holds one, and whether a
// read repair has anything to fix: a holder without a copy, or with an
// older one.
func newestOn(rec []replica, holders []keyspace.Key) (best entry, found, stale bool) {
	for _, h := range holders {
		i := holding(rec, h)
		switch {
		case i < 0:
			stale = true
		case !found:
			best, found = rec[i].entry, true
		case best.stamp.Less(rec[i].stamp):
			best, stale = rec[i].entry, true
		case rec[i].stamp.Less(best.stamp):
			stale = true
		}
	}
	return best, found, stale
}

// insertKey inserts k into the ascending list p, which must not hold it.
func insertKey(p keyspace.Points, k keyspace.Key) keyspace.Points {
	return slices.Insert(p, lowerBound(p, k), k)
}

// removeKey removes k from the ascending list p when present.
func removeKey(p keyspace.Points, k keyspace.Key) keyspace.Points {
	if i := lowerBound(p, k); i < len(p) && p[i] == k {
		return slices.Delete(p, i, i+1)
	}
	return p
}

// Store is the replicated range store. All methods are safe for
// concurrent use: one mutex guards the data and membership state, while
// Source.Snapshot loads stay lock-free on the overlay side. A second
// mutex, the gate, lets a membership event take the first ahead of
// operations that arrive while it waits, so a handover is not held off
// by a closed-loop client (see Locking in the package doc).
type Store struct {
	gate sync.Mutex // held by ApplyChange while it waits for mu
	mu   sync.Mutex
	src  Source
	r    int
	evs  bool // event-driven membership tracking

	members keyspace.Points
	// recs holds every stored key's copies, ascending by holder, in key
	// order: the range reads of handover, Scan and Sweep walk it.
	recs recTable
	// held maps each member to the ascending list of keys it holds a copy
	// of, so a departure drops its copies without scanning the store.
	// Pointer values let an added copy cost one map lookup, not two.
	held map[keyspace.Key]*keyspace.Points
	// holders is scratch for the replica set being read or written.
	holders []keyspace.Key

	synced   *overlaynet.Snapshot
	router   *overlaynet.SnapshotRouter
	locator  Locator
	topology keyspace.Topology
	epoch    uint64 // membership views observed (Stamp.Epoch source)
	seq      uint64 // global write counter (Stamp.Seq source)

	// Handover transfer accounting (see Config.BatchHandover).
	shardOf func(keyspace.Key) int
	batch   bool
	pending map[keyspace.Key]struct{} // dest members of the open event's copies

	stats Stats

	// Observability installed by SetObs (see obs.go in this package).
	obsReg     *obs.Registry
	obsHint    obs.Hint
	obsTracer  *obs.Tracer
	obsSampler obs.Sampler
}

// New builds a store over src, immediately adopting the current
// snapshot's population as its member list.
func New(src Source, cfg Config) (*Store, error) {
	if src == nil {
		return nil, fmt.Errorf("store: nil source")
	}
	if cfg.Replicas < 0 {
		return nil, fmt.Errorf("store: negative replica count %d", cfg.Replicas)
	}
	r := cfg.Replicas
	if r == 0 {
		r = DefaultReplicas
	}
	s := &Store{
		src:     src,
		r:       r,
		evs:     cfg.EventDriven,
		locator: cfg.Locator,
		shardOf: cfg.ShardOf,
		batch:   cfg.BatchHandover,
		held:    make(map[keyspace.Key]*keyspace.Points),
	}
	snap := src.Snapshot()
	if snap == nil {
		return nil, fmt.Errorf("store: source returned a nil snapshot")
	}
	s.adoptLocked(snap)
	s.members = append(keyspace.Points(nil), snap.SortedKeys()...)
	return s, nil
}

// adoptLocked pins the store to a new snapshot: epoch bump, router
// rebind, topology refresh. Membership is reconciled separately (diff
// or events).
func (s *Store) adoptLocked(snap *overlaynet.Snapshot) {
	s.synced = snap
	s.topology = snap.Topology()
	s.epoch++
	if s.locator != nil {
		s.locator.Rebind(snap)
		return
	}
	if s.router == nil {
		s.router = snap.NewRouter().(*overlaynet.SnapshotRouter)
	} else {
		s.router.Rebind(snap)
	}
}

// syncLocked observes the source's current snapshot. In diff mode it
// also reconciles membership: every departure found is treated as a
// crash (copies dropped, replication window repaired from survivors)
// and every arrival gets its owned range handed over.
func (s *Store) syncLocked() {
	snap := s.src.Snapshot()
	if snap == s.synced {
		return
	}
	s.adoptLocked(snap)
	if s.evs {
		return // membership arrives via ApplyChange
	}
	now := snap.SortedKeys()
	var gone, fresh []keyspace.Key
	i, j := 0, 0
	for i < len(s.members) || j < len(now) {
		switch {
		case j == len(now) || (i < len(s.members) && s.members[i] < now[j]):
			gone = append(gone, s.members[i])
			i++
		case i == len(s.members) || now[j] < s.members[i]:
			fresh = append(fresh, now[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
	if len(gone) == 0 && len(fresh) == 0 {
		return
	}
	for _, k := range gone {
		s.removeMemberLocked(k)
	}
	for _, k := range fresh {
		s.addMemberLocked(k)
	}
	for _, k := range gone {
		s.repairDepartureLocked(k)
	}
	for _, k := range fresh {
		s.repairArrivalLocked(k)
	}
	s.flushTransfersLocked()
}

// lock takes s.mu for every entry point but ApplyChange, after passing
// through the gate: an empty critical section that queues the caller
// behind a membership event waiting for s.mu.
func (s *Store) lock() {
	s.gate.Lock()
	s.gate.Unlock()
	s.mu.Lock()
}

// Sync forces a membership reconciliation against the source's current
// snapshot (diff mode; in event mode it only rebinds the router).
func (s *Store) Sync() {
	s.lock()
	defer s.mu.Unlock()
	s.syncLocked()
}

// ApplyChange consumes one typed ownership event (event-driven mode):
// a join hands the stolen range to the newcomer, a leave crashes the
// node and re-replicates its window from the survivors. Idempotent per
// event — the two changes a leave emits crash the node once. It holds
// the gate while it waits for the store mutex.
func (s *Store) ApplyChange(ch overlaynet.OwnershipChange) {
	s.gate.Lock()
	s.mu.Lock()
	s.gate.Unlock()
	defer s.mu.Unlock()
	if ch.Joined {
		if s.rankOfMemberLocked(ch.Node) >= 0 {
			return // second flank event of the same join
		}
		s.addMemberLocked(ch.Node)
		s.repairArrivalLocked(ch.Node)
		s.flushTransfersLocked()
		return
	}
	if s.rankOfMemberLocked(ch.Node) < 0 {
		return // second flank event of the same leave
	}
	s.removeMemberLocked(ch.Node)
	s.repairDepartureLocked(ch.Node)
	s.flushTransfersLocked()
}

// rankOfMemberLocked returns k's rank in the member list, -1 when not a
// member.
func (s *Store) rankOfMemberLocked(k keyspace.Key) int {
	i := sort.Search(len(s.members), func(i int) bool { return s.members[i] >= k })
	if i < len(s.members) && s.members[i] == k {
		return i
	}
	return -1
}

// addMemberLocked inserts a member holding no copies.
func (s *Store) addMemberLocked(k keyspace.Key) {
	i := sort.Search(len(s.members), func(i int) bool { return s.members[i] >= k })
	s.members = append(s.members, 0)
	copy(s.members[i+1:], s.members[i:])
	s.members[i] = k
}

// removeMemberLocked drops a member and its copies — a leave is a
// crash; whatever the node held is gone. A key left with no copy
// anywhere leaves the store.
func (s *Store) removeMemberLocked(k keyspace.Key) {
	i := s.rankOfMemberLocked(k)
	if i < 0 {
		return
	}
	var keys keyspace.Points
	if p := s.held[k]; p != nil {
		keys = *p
	}
	for _, key := range keys {
		p, _ := s.recs.search(key)
		_, rec := s.recs.at(p)
		j := holding(*rec, k)
		if *rec = slices.Delete(*rec, j, j+1); len(*rec) == 0 {
			s.recs.remove(p)
		}
	}
	delete(s.held, k)
	copy(s.members[i:], s.members[i+1:])
	s.members = s.members[:len(s.members)-1]
}

// writeCopyLocked stores e in rec, key k's record, as holder's copy,
// unless holder's copy is already equal or newer, and reports whether
// the copy changed.
func (s *Store) writeCopyLocked(k keyspace.Key, rec *[]replica, holder keyspace.Key, e entry) bool {
	r := *rec
	i := 0
	for i < len(r) && r[i].holder < holder {
		i++
	}
	if i < len(r) && r[i].holder == holder {
		if !r[i].stamp.Less(e.stamp) {
			return false
		}
		r[i].entry = e
		return true
	}
	*rec = slices.Insert(r, i, replica{holder: holder, entry: e})
	p := s.held[holder]
	if p == nil {
		p = new(keyspace.Points)
		s.held[holder] = p
	}
	*p = insertKey(*p, k)
	return true
}

// readRepairLocked writes best to every holder that is missing k or
// holds an older version, and returns how many copies it fixed.
func (s *Store) readRepairLocked(k keyspace.Key, rec *[]replica, holders []keyspace.Key, best entry) int {
	fixed := 0
	for _, h := range holders {
		if s.writeCopyLocked(k, rec, h, best) {
			fixed++
			s.stats.ReadRepairs++
			s.stats.BytesMoved += int64(len(best.val))
		}
	}
	return fixed
}

// repairWindowLocked re-replicates every key whose replica set involves
// the member at rank i: keys owned by ranks i-R+1..i (their replica
// sets extend forward over rank i). This is the window a membership
// change at rank i perturbs — a departure removed one of their copies,
// an arrival inserted itself into their replica sets.
func (s *Store) repairWindowLocked(i int) {
	n := len(s.members)
	if n == 0 {
		return
	}
	if n <= s.r {
		s.repairRangeLocked(keyspace.Interval{Lo: 0, Hi: 1})
		return
	}
	lo := keyspace.Cell(s.topology, s.members, (i-(s.r-1)+n)%n).Lo
	hi := keyspace.Cell(s.topology, s.members, i).Hi
	s.repairRangeLocked(keyspace.Interval{Lo: lo, Hi: hi})
}

// repairDepartureLocked repairs around a departed node. Its cell split
// across BOTH flanks, so the window anchors at the successor flank —
// the highest rank whose keys could have counted the departed node as
// a replica; the R-1 ranks below it (including the pred flank) fall
// inside the window.
func (s *Store) repairDepartureLocked(departed keyspace.Key) {
	n := len(s.members)
	if n == 0 {
		return
	}
	i := s.members.Successor(departed)
	if s.topology == keyspace.Line && departed > s.members[n-1] {
		i = n - 1 // the line's top node left; its pred inherited everything
	}
	s.repairWindowLocked(i)
}

// repairArrivalLocked repairs around a freshly-added member: the
// newcomer both took over its stolen range and displaced the last
// replica of every key owned by its R-1 rank predecessors.
func (s *Store) repairArrivalLocked(added keyspace.Key) {
	i := s.rankOfMemberLocked(added)
	if i < 0 {
		return
	}
	s.repairWindowLocked(i)
}

// holdersLocked returns the replica set of the cell of the member at
// rank own: that member and its rank successors, min(R, N) of them. On
// the line the rank order simply wraps like the ring's — replica
// placement is an index structure, not a routing geometry. The slice is
// s.holders, valid until the next call.
func (s *Store) holdersLocked(own int) []keyspace.Key {
	n := len(s.members)
	h := s.holders[:0]
	for range min(s.r, n) {
		h = append(h, s.members[own])
		if own++; own == n {
			own = 0
		}
	}
	s.holders = h
	return h
}

// keyHoldersLocked returns the replica set of key k, through
// holdersLocked.
func (s *Store) keyHoldersLocked(k keyspace.Key) []keyspace.Key {
	if len(s.members) == 0 {
		return s.holders[:0]
	}
	return s.holdersLocked(keyspace.Owner(s.topology, s.members, k))
}

// repairRangeLocked restores full replication for every key currently
// stored anywhere inside iv: the newest version found on any member is
// written to each missing or stale replica. Never trims — Sweep does.
func (s *Store) repairRangeLocked(iv keyspace.Interval) {
	if iv.Empty() || len(s.members) == 0 {
		return
	}
	for _, run := range s.recs.runs(iv) {
		for p := run[0]; p != run[1]; p = s.recs.next(p) {
			k, rec := s.recs.at(p)
			s.rereplicateKeyLocked(k, rec, s.keyHoldersLocked(k))
		}
	}
}

// rereplicateKeyLocked writes the newest version in rec, key k's
// record, to every holder that is missing it or stale. The newest
// version is taken from any member, replica or not: a copy parked
// outside the replica set can still save the key.
func (s *Store) rereplicateKeyLocked(k keyspace.Key, rec *[]replica, holders []keyspace.Key) {
	if len(*rec) == 0 {
		return
	}
	best, from := newest(*rec)
	for _, h := range holders {
		if !s.writeCopyLocked(k, rec, h, best) {
			continue
		}
		s.stats.Rereplicated++
		s.stats.BytesMoved += int64(len(best.val))
		s.recordHandoverLocked(from, h)
	}
}

// recordHandoverLocked accounts one handover/sweep repair copy from
// member `from` to member `to`. Unbatched, every copy is its own
// transfer; batched, copies coalesce per destination until the
// enclosing membership event flushes (flushTransfersLocked) — modelling
// one bulk frame per destination instead of one per key.
func (s *Store) recordHandoverLocked(from, to keyspace.Key) {
	if s.shardOf != nil && from != to && s.shardOf(from) != s.shardOf(to) {
		s.stats.CrossShardMoves++
	}
	if !s.batch {
		s.stats.Transfers++
		return
	}
	if s.pending == nil {
		s.pending = make(map[keyspace.Key]struct{})
	}
	s.pending[to] = struct{}{}
}

// flushTransfersLocked closes the open membership event's coalesced
// transfers: one per destination member that received copies.
func (s *Store) flushTransfersLocked() {
	if len(s.pending) == 0 {
		return
	}
	s.stats.Transfers += int64(len(s.pending))
	for m := range s.pending {
		delete(s.pending, m)
	}
}

// locateLocked routes greedily from slot src toward k on the synced
// snapshot and returns the hop count; src < 0 (a store-internal caller
// with no overlay position) costs nothing.
func (s *Store) locateLocked(src int, k keyspace.Key) int {
	if src < 0 {
		return 0
	}
	if s.locator != nil {
		return s.locator.Route(src, k).Hops
	}
	if s.router == nil {
		return 0
	}
	return s.router.Route(src, k).Hops
}

// Put writes val under key from overlay slot src (src < 0 skips the
// locate route). The write is acknowledged only when every replica in
// the current population took it.
func (s *Store) Put(src int, key keyspace.Key, val []byte) PutResult {
	s.lock()
	defer s.mu.Unlock()
	pre := s.stats
	res := s.putLocked(src, key, val)
	s.obsFlushLocked(pre, "put", src, float64(key), res.Hops)
	return res
}

func (s *Store) putLocked(src int, key keyspace.Key, val []byte) PutResult {
	s.syncLocked()
	s.stats.Puts++
	n := len(s.members)
	if n == 0 {
		return PutResult{}
	}
	s.seq++
	st := Stamp{Epoch: s.epoch, Seq: s.seq}
	res := PutResult{Stamp: st, Hops: s.locateLocked(src, key)}
	holders := s.keyHoldersLocked(key)
	p, ok := s.recs.search(key)
	if !ok {
		p = s.recs.insert(p, key, make([]replica, 0, len(holders)))
	}
	_, rec := s.recs.at(p)
	for j, h := range holders {
		s.writeCopyLocked(key, rec, h, entry{val: val, stamp: st})
		if j > 0 {
			res.Hops++ // one replication hop per extra copy
		}
	}
	res.Replicas = len(holders)
	res.Acked = len(holders) > 0
	if res.Acked {
		s.stats.AckedWrites++
	}
	return res
}

// Get reads key's newest replica from overlay slot src, repairing any
// stale or missing copies it finds along the way.
func (s *Store) Get(src int, key keyspace.Key) GetResult {
	s.lock()
	defer s.mu.Unlock()
	pre := s.stats
	res := s.getLocked(src, key)
	s.obsFlushLocked(pre, "get", src, float64(key), res.Hops)
	return res
}

func (s *Store) getLocked(src int, key keyspace.Key) GetResult {
	s.syncLocked()
	s.stats.Gets++
	res := GetResult{Hops: s.locateLocked(src, key)}
	holders := s.keyHoldersLocked(key)
	if len(holders) > 1 {
		res.Hops += len(holders) - 1 // one hop per extra replica consulted
	}
	p, ok := s.recs.search(key)
	if !ok {
		return res
	}
	_, rec := s.recs.at(p)
	best, found, stale := newestOn(*rec, holders)
	if !found {
		return res
	}
	res.Found = true
	if stale {
		res.Repaired = s.readRepairLocked(key, rec, holders, best)
	}
	res.Val, res.Stamp = best.val, best.stamp
	return res
}

// Scan reads every key in iv from overlay slot src as an ordered walk
// across responsibility cells: locate the owner of iv.Lo, then follow
// rank successors until the interval is covered, merging replicas
// newest-wins (with read-repair) per cell. KVs come back in ascending
// key order along the arc from iv.Lo, across the ring wrap.
func (s *Store) Scan(src int, iv keyspace.Interval) ScanResult {
	s.lock()
	defer s.mu.Unlock()
	pre := s.stats
	res := s.scanLocked(src, iv)
	s.obsFlushLocked(pre, "scan", src, float64(iv.Lo), res.Hops)
	return res
}

func (s *Store) scanLocked(src int, iv keyspace.Interval) ScanResult {
	s.syncLocked()
	s.stats.Scans++
	var res ScanResult
	if len(s.members) == 0 || iv.Empty() {
		return res
	}
	// The walk returns at most the stored keys inside iv.
	k := 0
	for _, run := range s.recs.runs(iv) {
		k += s.recs.count(run[0], run[1])
	}
	if k > 0 {
		res.KVs = make([]KV, 0, k)
	}
	w := scanWalk{res: &res, lo: iv.Lo, last: math.Inf(-1)}
	res.Hops = s.locateLocked(src, iv.Lo)
	if s.topology == keyspace.Line && iv.Lo > iv.Hi {
		// The line has no wrap for the cell walk to follow: read [Lo, 1),
		// then locate key 0 and read [0, Hi).
		s.walkCellsLocked(&w, keyspace.Interval{Lo: iv.Lo, Hi: 1})
		if iv.Hi > 0 {
			res.Hops += s.locateLocked(src, 0)
			s.walkCellsLocked(&w, keyspace.Interval{Lo: 0, Hi: iv.Hi})
		}
	} else {
		s.walkCellsLocked(&w, iv)
	}
	// Cells are walked in arc order but the first cell may contain keys
	// below iv.Lo that belong to the interval's far (wrapped) end, and a
	// cell that wraps through 0 yields its keys below its Hi before those
	// from its Lo; a stable sort by arc displacement makes the ordering
	// guarantee unconditional. It runs only when the walk saw a
	// displacement go backwards.
	if w.unsorted {
		slices.SortStableFunc(res.KVs, func(a, b KV) int {
			da := float64(keyspace.Wrap(float64(a.Key) - float64(iv.Lo)))
			db := float64(keyspace.Wrap(float64(b.Key) - float64(iv.Lo)))
			return cmp.Compare(da, db)
		})
	}
	return res
}

// scanWalk is one Scan's progress through the record table.
type scanWalk struct {
	res      *ScanResult
	lo       keyspace.Key // the scanned interval's Lo: arc order runs from it
	last     float64      // arc displacement of the last key read
	unsorted bool         // a key came back below its predecessor's displacement
}

// walkCellsLocked reads every stored key in iv as an ordered walk across
// responsibility cells: from the owner of iv.Lo along rank successors
// until the interval is covered. One cursor into the record table
// follows the walk, since each cell starts where the one before it
// ended.
func (s *Store) walkCellsLocked(w *scanWalk, iv keyspace.Interval) {
	n := len(s.members)
	length := iv.Length()
	start := keyspace.Owner(s.topology, s.members, iv.Lo)
	rank := start
	var p pos // the first stored key at or above the cell's Lo
	for steps := 0; steps < n; steps++ {
		w.res.Cells++
		cell := keyspace.Cell(s.topology, s.members, rank)
		if steps == 0 {
			p = s.recs.seek(cell.Lo)
		}
		// Keys this cell's owner is responsible for, restricted to iv, in
		// ascending key order. Cells tile the key space, so every key in
		// the cell shares the cell's replica set; every replica is
		// consulted so a freshly-crashed owner does not hide its keys.
		if !cell.Empty() {
			holders := s.holdersLocked(rank)
			if cell.Lo < cell.Hi {
				p = s.readKeysLocked(w, iv, holders, p, cell.Hi)
			} else {
				// The cell wraps through 0: the keys below its Hi come
				// first, then those from its Lo to the table's end.
				q := s.readKeysLocked(w, iv, holders, pos{}, cell.Hi)
				s.readKeysLocked(w, iv, holders, p, keyspace.Key(math.Inf(1)))
				p = q
			}
		}
		var covered float64
		if s.topology == keyspace.Ring {
			covered = float64(keyspace.Wrap(float64(cell.Hi) - float64(iv.Lo)))
			if cell.Hi == iv.Lo {
				covered = 1 // the walk consumed the whole ring
			}
		} else {
			covered = float64(cell.Hi) - float64(iv.Lo)
		}
		if covered >= length {
			break
		}
		next := (rank + 1) % n
		if next == start || (s.topology == keyspace.Line && next == 0) {
			break // wrapped the whole ring, or hit the line's top end
		}
		rank = next
		w.res.Hops++
	}
}

// readKeysLocked reads the stored keys from p up to the first at or
// above hi, keeping those inside iv: each one's newest copy on holders
// joins the result, and stale or missing copies there are repaired. It
// returns the position after the run.
func (s *Store) readKeysLocked(w *scanWalk, iv keyspace.Interval, holders []keyspace.Key, p pos, hi keyspace.Key) pos {
	for ; s.recs.valid(p); p = s.recs.next(p) {
		k, rec := s.recs.at(p)
		if k >= hi {
			break
		}
		if !iv.Contains(k) {
			continue
		}
		best, found, stale := newestOn(*rec, holders)
		if !found {
			continue
		}
		if stale {
			w.res.Repaired += s.readRepairLocked(k, rec, holders, best)
		}
		if d := float64(keyspace.Wrap(float64(k) - float64(w.lo))); d < w.last {
			w.unsorted = true
		} else {
			w.last = d
		}
		w.res.KVs = append(w.res.KVs, KV{Key: k, Val: best.val, Stamp: best.stamp})
	}
	return p
}

// Sweep is the anti-entropy backstop: one full pass that restores every
// key to full replication on its current replica set and trims copies
// parked on nodes outside it. Deterministic — keys are visited in
// ascending order.
func (s *Store) Sweep() {
	s.lock()
	defer s.mu.Unlock()
	pre := s.stats
	s.sweepLocked()
	s.obsFlushLocked(pre, "sweep", -1, 0, 0)
}

func (s *Store) sweepLocked() {
	s.syncLocked()
	s.stats.Sweeps++
	// Re-replication only adds copies of stored keys and the trim keeps
	// each key's replica set, so no key leaves the table under the walk.
	for p := (pos{}); s.recs.valid(p); p = s.recs.next(p) {
		k, rec := s.recs.at(p)
		holders := s.keyHoldersLocked(k)
		s.rereplicateKeyLocked(k, rec, holders)
		r, w := *rec, 0
		for _, c := range r {
			if slices.Contains(holders, c.holder) {
				r[w] = c
				w++
				continue
			}
			h := s.held[c.holder]
			*h = removeKey(*h, k)
			s.stats.Trimmed++
		}
		if w < len(r) {
			clear(r[w:])
			*rec = r[:w]
		}
	}
	s.flushTransfersLocked()
}

// Backlog counts the re-replication debt: (key, replica) placements
// currently missing or stale. Zero means every key is fully replicated
// at its newest version. Non-mutating.
func (s *Store) Backlog() int {
	s.lock()
	defer s.mu.Unlock()
	backlog := 0
	for p := (pos{}); s.recs.valid(p); p = s.recs.next(p) {
		k, rec := s.recs.at(p)
		best, _ := newest(*rec)
		for _, h := range s.keyHoldersLocked(k) {
			if i := holding(*rec, h); i < 0 || (*rec)[i].stamp.Less(best.stamp) {
				backlog++
			}
		}
	}
	return backlog
}

// Newest returns the newest stamp held for k on its current replica
// set — the durability audit primitive: an acknowledged write is lost
// iff Newest reports an older stamp (or nothing). Non-mutating.
func (s *Store) Newest(k keyspace.Key) (Stamp, bool) {
	s.lock()
	defer s.mu.Unlock()
	p, ok := s.recs.search(k)
	if !ok {
		return Stamp{}, false
	}
	_, rec := s.recs.at(p)
	best, found, _ := newestOn(*rec, s.keyHoldersLocked(k))
	return best.stamp, found
}

// Replicas returns R.
func (s *Store) Replicas() int { return s.r }

// Members returns the store's current member identifiers, ascending.
// The slice is a copy.
func (s *Store) Members() keyspace.Points {
	s.lock()
	defer s.mu.Unlock()
	return append(keyspace.Points(nil), s.members...)
}

// Stats returns a copy of the work counters.
func (s *Store) Stats() Stats {
	s.lock()
	defer s.mu.Unlock()
	return s.stats
}
