// Package store is the replicated range-store data plane over the
// small-world overlay: put/get/scan on keys in [0,1), each key
// replicated to the R rank-index successors of its responsible node,
// with key/value handover on churn. Ownership comes from the single
// shared definition in keyspace.Cell/Owner (the same math behind
// Network.Cell and overlaynet.OwnedRange), so the store and the overlay
// can never disagree about who holds what.
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
// copies as (holder, version) pairs sorted by holder identifier. Beside
// the records sit a sorted list of the distinct stored keys and, per
// member, the sorted list of keys it holds. A Get or Put is one record
// lookup. A membership event reads its repair window's keys from the
// key list and touches only their records, so handover costs
// O(log K + window keys × copies) for K stored keys, independent of N;
// a departure drops the node's copies through its held-key list.
package store

import (
	"fmt"
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
	// byte payloads) are identical either way.
	BatchHandover bool
	// TransferOverheadBytes charges a fixed per-transfer framing cost
	// into Stats.BytesMoved, which is what makes the batching reduction
	// visible in the bytes_moved series. Zero — the default — keeps
	// BytesMoved bit-identical to earlier releases.
	TransferOverheadBytes int
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

// insertKey inserts k into the ascending list p, which must not hold it.
func insertKey(p keyspace.Points, k keyspace.Key) keyspace.Points {
	i := sort.Search(len(p), func(i int) bool { return p[i] >= k })
	p = append(p, 0)
	copy(p[i+1:], p[i:])
	p[i] = k
	return p
}

// removeKey removes k from the ascending list p when present.
func removeKey(p keyspace.Points, k keyspace.Key) keyspace.Points {
	i := sort.Search(len(p), func(i int) bool { return p[i] >= k })
	if i == len(p) || p[i] != k {
		return p
	}
	copy(p[i:], p[i+1:])
	return p[:len(p)-1]
}

// Store is the replicated range store. All methods are safe for
// concurrent use: one mutex guards the data and membership state, while
// Source.Snapshot loads stay lock-free on the overlay side.
type Store struct {
	mu  sync.Mutex
	src Source
	r   int
	evs bool // event-driven membership tracking

	members keyspace.Points
	// recs maps each stored key to its copies, ascending by holder.
	recs map[keyspace.Key][]replica
	// keys lists the distinct stored keys, ascending: the range reads of
	// handover, Scan and Sweep walk it.
	keys keyspace.Points
	// held maps each member to the ascending list of keys it holds a copy
	// of, so a departure drops its copies without scanning the store.
	// Pointer values let an added copy cost one map lookup, not two.
	held map[keyspace.Key]*keyspace.Points

	synced   *overlaynet.Snapshot
	router   *overlaynet.SnapshotRouter
	locator  Locator
	topology keyspace.Topology
	epoch    uint64 // membership views observed (Stamp.Epoch source)
	seq      uint64 // global write counter (Stamp.Seq source)

	// Handover transfer accounting (see Config.BatchHandover).
	shardOf   func(keyspace.Key) int
	batch     bool
	overheadB int
	pending   map[keyspace.Key]struct{} // dest members of the open event's copies

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
	if cfg.TransferOverheadBytes < 0 {
		return nil, fmt.Errorf("store: negative transfer overhead %d", cfg.TransferOverheadBytes)
	}
	s := &Store{
		src:       src,
		r:         r,
		evs:       cfg.EventDriven,
		locator:   cfg.Locator,
		shardOf:   cfg.ShardOf,
		batch:     cfg.BatchHandover,
		overheadB: cfg.TransferOverheadBytes,
		recs:      make(map[keyspace.Key][]replica),
		held:      make(map[keyspace.Key]*keyspace.Points),
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

// Sync forces a membership reconciliation against the source's current
// snapshot (diff mode; in event mode it only rebinds the router).
func (s *Store) Sync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncLocked()
}

// ApplyChange consumes one typed ownership event (event-driven mode):
// a join hands the stolen range to the newcomer, a leave crashes the
// node and re-replicates its window from the survivors. Idempotent per
// event — the two changes a leave emits crash the node once.
func (s *Store) ApplyChange(ch overlaynet.OwnershipChange) {
	s.mu.Lock()
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
		rec := s.recs[key]
		j := holding(rec, k)
		copy(rec[j:], rec[j+1:])
		rec[len(rec)-1] = replica{}
		rec = rec[:len(rec)-1]
		if len(rec) == 0 {
			delete(s.recs, key)
			s.keys = removeKey(s.keys, key)
			continue
		}
		s.recs[key] = rec
	}
	delete(s.held, k)
	copy(s.members[i:], s.members[i+1:])
	s.members = s.members[:len(s.members)-1]
}

// writeCopyLocked stores e as the copy of key k held by the member at
// rank, unless that member's copy is already equal or newer, and
// reports whether the copy changed. rec is k's record; the returned
// record may have grown, and the caller hands it to saveRecordLocked.
func (s *Store) writeCopyLocked(k keyspace.Key, rec []replica, rank int, e entry) ([]replica, bool) {
	holder := s.members[rank]
	i := 0
	for i < len(rec) && rec[i].holder < holder {
		i++
	}
	if i < len(rec) && rec[i].holder == holder {
		if !rec[i].stamp.Less(e.stamp) {
			return rec, false
		}
		rec[i].entry = e
		return rec, true
	}
	rec = append(rec, replica{})
	copy(rec[i+1:], rec[i:])
	rec[i] = replica{holder: holder, entry: e}
	p := s.held[holder]
	if p == nil {
		p = new(keyspace.Points)
		s.held[holder] = p
	}
	*p = insertKey(*p, k)
	return rec, true
}

// saveRecordLocked stores k's record back after writeCopyLocked calls
// that started from n copies; a record that did not grow is already in
// place, and a key's first copies enter it into the key list.
func (s *Store) saveRecordLocked(k keyspace.Key, rec []replica, n int) {
	if len(rec) == n {
		return
	}
	if n == 0 {
		s.keys = insertKey(s.keys, k)
	}
	s.recs[k] = rec
}

// keyRunsLocked returns the stored keys inside iv as two ascending runs
// of s.keys, to be walked in order: for a wrapping interval the keys
// below iv.Hi come before those from iv.Lo. The runs alias s.keys, so
// no key may enter or leave the store while they are walked.
func (s *Store) keyRunsLocked(iv keyspace.Interval) [2]keyspace.Points {
	from := func(k keyspace.Key) int {
		return sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= k })
	}
	if iv.Lo <= iv.Hi {
		return [2]keyspace.Points{s.keys[from(iv.Lo):from(iv.Hi)]}
	}
	return [2]keyspace.Points{s.keys[:from(iv.Hi)], s.keys[from(iv.Lo):]}
}

// newestOnLocked returns the newest copy of rec held by the members at
// ranks — the first such rank on equal stamps — and whether any holds
// one.
func (s *Store) newestOnLocked(rec []replica, ranks []int) (entry, bool) {
	var best entry
	found := false
	for _, rk := range ranks {
		if i := holding(rec, s.members[rk]); i >= 0 && (!found || best.stamp.Less(rec[i].stamp)) {
			best, found = rec[i].entry, true
		}
	}
	return best, found
}

// readRepairLocked writes best to every member at ranks that is missing
// k or holds an older version, and returns how many copies it fixed.
func (s *Store) readRepairLocked(k keyspace.Key, rec []replica, ranks []int, best entry) int {
	n, fixed := len(rec), 0
	for _, rk := range ranks {
		var changed bool
		if rec, changed = s.writeCopyLocked(k, rec, rk, best); changed {
			fixed++
			s.stats.ReadRepairs++
			s.stats.BytesMoved += int64(len(best.val))
		}
	}
	s.saveRecordLocked(k, rec, n)
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

// replicaRanks returns the ranks holding key k: its owner and the
// owner's rank successors, min(R, N) of them. On the line the rank
// order simply wraps like the ring's — replica placement is an index
// structure, not a routing geometry.
func (s *Store) replicaRanksLocked(k keyspace.Key, ranks []int) []int {
	n := len(s.members)
	if n == 0 {
		return ranks[:0]
	}
	m := s.r
	if m > n {
		m = n
	}
	own := keyspace.Owner(s.topology, s.members, k)
	ranks = ranks[:0]
	for j := 0; j < m; j++ {
		ranks = append(ranks, (own+j)%n)
	}
	return ranks
}

// repairRangeLocked restores full replication for every key currently
// stored anywhere inside iv: the newest version found on any member is
// written to each missing or stale replica. Never trims — Sweep does.
func (s *Store) repairRangeLocked(iv keyspace.Interval) {
	if iv.Empty() || len(s.members) == 0 {
		return
	}
	for _, run := range s.keyRunsLocked(iv) {
		for _, k := range run {
			s.rereplicateKeyLocked(k)
		}
	}
}

// rereplicateKeyLocked writes k's newest stored version to every
// desired replica that is missing it or stale, and returns k's record.
// The newest version is taken from any member, replica or not: a copy
// parked outside the replica set can still save the key.
func (s *Store) rereplicateKeyLocked(k keyspace.Key) []replica {
	rec := s.recs[k]
	if len(rec) == 0 {
		return rec
	}
	best, from := newest(rec)
	n := len(rec)
	var scratch [8]int
	for _, rk := range s.replicaRanksLocked(k, scratch[:0]) {
		var changed bool
		if rec, changed = s.writeCopyLocked(k, rec, rk, best); !changed {
			continue
		}
		s.stats.Rereplicated++
		s.stats.BytesMoved += int64(len(best.val))
		s.recordHandoverLocked(from, s.members[rk])
	}
	s.saveRecordLocked(k, rec, n)
	return rec
}

// recordHandoverLocked accounts one handover/sweep repair copy from
// member `from` to member `to`. Unbatched, every copy is its own
// transfer (plus the configured per-transfer overhead); batched,
// copies coalesce per destination until the enclosing membership event
// flushes (flushTransfersLocked) — modelling one bulk frame per
// destination instead of one per key.
func (s *Store) recordHandoverLocked(from, to keyspace.Key) {
	if s.shardOf != nil && from != to && s.shardOf(from) != s.shardOf(to) {
		s.stats.CrossShardMoves++
	}
	if !s.batch {
		s.stats.Transfers++
		s.stats.BytesMoved += int64(s.overheadB)
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
	s.stats.BytesMoved += int64(len(s.pending)) * int64(s.overheadB)
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
	s.mu.Lock()
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
	var scratch [8]int
	ranks := s.replicaRanksLocked(key, scratch[:0])
	rec := s.recs[key]
	n0 := len(rec)
	if rec == nil {
		rec = make([]replica, 0, len(ranks))
	}
	for j, rk := range ranks {
		rec, _ = s.writeCopyLocked(key, rec, rk, entry{val: val, stamp: st})
		if j > 0 {
			res.Hops++ // one replication hop per extra copy
		}
	}
	s.saveRecordLocked(key, rec, n0)
	res.Replicas = len(ranks)
	res.Acked = len(ranks) > 0
	if res.Acked {
		s.stats.AckedWrites++
	}
	return res
}

// Get reads key's newest replica from overlay slot src, repairing any
// stale or missing copies it finds along the way.
func (s *Store) Get(src int, key keyspace.Key) GetResult {
	s.mu.Lock()
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
	var scratch [8]int
	ranks := s.replicaRanksLocked(key, scratch[:0])
	if len(ranks) > 1 {
		res.Hops += len(ranks) - 1 // one hop per extra replica consulted
	}
	rec := s.recs[key]
	best, found := s.newestOnLocked(rec, ranks)
	if !found {
		return res
	}
	res.Found = true
	res.Repaired = s.readRepairLocked(key, rec, ranks, best)
	res.Val, res.Stamp = best.val, best.stamp
	return res
}

// Scan reads every key in iv from overlay slot src as an ordered walk
// across responsibility cells: locate the owner of iv.Lo, then follow
// rank successors until the interval is covered, merging replicas
// newest-wins (with read-repair) per cell. KVs come back in ascending
// key order along the arc from iv.Lo, across the ring wrap.
func (s *Store) Scan(src int, iv keyspace.Interval) ScanResult {
	s.mu.Lock()
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
	n := len(s.members)
	if n == 0 || iv.Empty() {
		return res
	}
	res.Hops = s.locateLocked(src, iv.Lo)
	length := iv.Length()
	start := keyspace.Owner(s.topology, s.members, iv.Lo)
	rank := start
	var scratch [8]int
	for steps := 0; steps < n; steps++ {
		res.Cells++
		cell := keyspace.Cell(s.topology, s.members, rank)
		// Keys this cell's owner is responsible for, restricted to iv, in
		// ascending key order. Cells tile the key space, so every key in
		// the cell shares the cell's replica set; every replica is
		// consulted so a freshly-crashed owner does not hide its keys.
		if !cell.Empty() {
			ranks := s.replicaRanksLocked(cell.Lo, scratch[:0])
			for _, run := range s.keyRunsLocked(cell) {
				for _, k := range run {
					if !iv.Contains(k) {
						continue
					}
					rec := s.recs[k]
					best, found := s.newestOnLocked(rec, ranks)
					if !found {
						continue
					}
					res.Repaired += s.readRepairLocked(k, rec, ranks, best)
					res.KVs = append(res.KVs, KV{Key: k, Val: best.val, Stamp: best.stamp})
				}
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
		res.Hops++
	}
	// Cells are walked in arc order but the first cell may contain keys
	// below iv.Lo that belong to the interval's far (wrapped) end; a
	// final sort by arc displacement makes the ordering guarantee
	// unconditional.
	sort.SliceStable(res.KVs, func(i, j int) bool {
		di := float64(keyspace.Wrap(float64(res.KVs[i].Key) - float64(iv.Lo)))
		dj := float64(keyspace.Wrap(float64(res.KVs[j].Key) - float64(iv.Lo)))
		return di < dj
	})
	return res
}

// Sweep is the anti-entropy backstop: one full pass that restores every
// key to full replication on its current replica set and trims copies
// parked on nodes outside it. Deterministic — keys are visited in
// ascending order.
func (s *Store) Sweep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	pre := s.stats
	s.sweepLocked()
	s.obsFlushLocked(pre, "sweep", -1, 0, 0)
}

func (s *Store) sweepLocked() {
	s.syncLocked()
	s.stats.Sweeps++
	var scratch [8]int
	// Re-replication only adds copies of stored keys and the trim keeps
	// each key's replica set, so the key list is stable under the walk.
	for _, k := range s.keys {
		rec := s.rereplicateKeyLocked(k)
		ranks := s.replicaRanksLocked(k, scratch[:0])
		w := 0
		for _, c := range rec {
			if s.inRanksLocked(c.holder, ranks) {
				rec[w] = c
				w++
				continue
			}
			p := s.held[c.holder]
			*p = removeKey(*p, k)
			s.stats.Trimmed++
		}
		if w < len(rec) {
			clear(rec[w:])
			s.recs[k] = rec[:w]
		}
	}
	s.flushTransfersLocked()
}

// inRanksLocked reports whether member m sits at one of ranks.
func (s *Store) inRanksLocked(m keyspace.Key, ranks []int) bool {
	for _, rk := range ranks {
		if s.members[rk] == m {
			return true
		}
	}
	return false
}

// Backlog counts the re-replication debt: (key, replica) placements
// currently missing or stale. Zero means every key is fully replicated
// at its newest version. Non-mutating.
func (s *Store) Backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	backlog := 0
	var scratch [8]int
	for _, k := range s.keys {
		rec := s.recs[k]
		best, _ := newest(rec)
		for _, rk := range s.replicaRanksLocked(k, scratch[:0]) {
			if i := holding(rec, s.members[rk]); i < 0 || rec[i].stamp.Less(best.stamp) {
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
	s.mu.Lock()
	defer s.mu.Unlock()
	var scratch [8]int
	best, found := s.newestOnLocked(s.recs[k], s.replicaRanksLocked(k, scratch[:0]))
	return best.stamp, found
}

// Replicas returns R.
func (s *Store) Replicas() int { return s.r }

// Members returns the store's current member identifiers, ascending.
// The slice is a copy.
func (s *Store) Members() keyspace.Points {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(keyspace.Points(nil), s.members...)
}

// Stats returns a copy of the work counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
