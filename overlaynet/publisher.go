package overlaynet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"smallworld/keyspace"
	"smallworld/obs"
)

// Publisher serves an overlay while it churns: it wraps any Dynamic
// overlay and publishes immutable Snapshots through an atomic pointer —
// the RCU (read-copy-update) discipline. Readers load the current
// snapshot with one atomic pointer read and route against it lock-free
// for as long as they like; membership events apply on the writer side
// under a mutex and republish at every epoch boundary. No reader ever
// blocks a writer, no writer ever tears a reader's view, and a reader
// pinned to an old epoch simply serves a slightly stale — but
// internally consistent — picture of the overlay.
//
//	pub, _ := overlaynet.NewPublisher(dyn)
//	// any number of goroutines:
//	snap := pub.Snapshot()
//	router := snap.NewRouter()
//	res := router.Route(src, target)
//	// one writer (or several; the Publisher serialises them):
//	pub.Join(ctx)
//
// The epoch boundary defaults to every 64 membership events. A capture
// of the incremental overlay copies only the spines of its
// copy-on-write stores, and the writer then clones each chunk or
// block it touches once per epoch. Between boundaries readers route
// against the previous epoch — the staleness any deployed overlay
// accepts in exchange for an uncontended read path. PublishEvery(1)
// trades that for per-event capture and clone cost; Publish forces a
// boundary on demand.
//
// The Publisher itself implements Overlay by delegating every read to
// the current snapshot (so it drops into QueryRunner and the registry
// tooling), and Dynamic by delegating membership to the wrapped
// overlay. Mutator arguments refer to the wrapped overlay's LIVE
// state, which runs ahead of the published read surface by up to
// PublishEvery-1 events: Leave's node index must be drawn against
// LiveN, never against N()/Keys(). In particular, do NOT hand a
// Publisher to a driver that derives leave victims from the Overlay
// read surface — sim.Run does exactly that — or indices computed from
// a stale epoch will miss (error) or name the wrong live node. Drive
// the wrapped overlay directly and serve through the Publisher
// (sim.Serve's writer does), or churn through Join/Leave with indices
// from LiveN.
type Publisher struct {
	mu      sync.Mutex // serialises writers: Join, Leave, Publish
	dyn     Dynamic
	every   int
	pending int
	epoch   uint64

	faults     FaultPlane
	vantage    keyspace.Key
	hasVantage bool

	// Fault-mask reuse state. A published mask is immutable and may be
	// pinned by readers on arbitrarily old epochs, so it is never
	// recycled in place — instead publishLocked SHARES the previous
	// snapshot's mask object whenever nothing it depends on changed:
	// the plane's fault epoch, the vantage, and the key population
	// (checked by chunk-pointer identity of the snapshots' key spines —
	// chunks are immutable once shared, so pointer-equal spines imply
	// identical identifiers even when membership events bypassed the
	// Publisher's own mutators). When only the population changed, the
	// new mask copies the marks of the pointer-equal chunks and of every
	// slot still holding its identifier, and asks the plane about the
	// rest. maskVantage records the vantage the
	// last-built mask was derived from, maskPlane the SetFaultPlane
	// installation it read: two distinct planes may report equal fault
	// epochs, so the epoch alone does not identify the plane.
	maskVantage    keyspace.Key
	maskHasVantage bool
	plane          uint64 // SetFaultPlane installations so far
	maskPlane      uint64

	obsReg    *obs.Registry
	obsTracer *obs.Tracer
	obsHint   obs.Hint

	cur atomic.Pointer[Snapshot]
}

// defaultPublishEvery is the default epoch boundary, in events.
const defaultPublishEvery = 64

// FaultPlane is the node-fault view a Publisher materialises into each
// snapshot it publishes: which identifiers are crashed, stamped with a
// reconfiguration epoch so a stale mask is distinguishable from a
// current one. netmodel.Model implements it. Both methods must be safe
// to call from the publisher's writer side concurrently with readers.
//
// The epoch contract: Dead, and ReachabilityPlane's Unreachable, do not
// change their answer for an identifier (and a vantage) without a
// FaultEpoch bump. A Publisher relies on it to reuse a mask across
// publications at one epoch, whole or for every slot whose identifier
// membership events left in place, without asking the plane again.
type FaultPlane interface {
	// Dead reports whether the node holding identifier k is crashed.
	Dead(k keyspace.Key) bool
	// FaultEpoch counts fault-plane reconfigurations.
	FaultEpoch() uint64
}

// ReachabilityPlane is optionally implemented by fault planes that
// also know pairwise reachability (partitions). netmodel.Model
// implements it.
type ReachabilityPlane interface {
	FaultPlane
	// Unreachable reports whether a message from the node holding
	// `from` can never reach the node holding `to`.
	Unreachable(from, to keyspace.Key) bool
}

// SetFaultPlane installs (or, with nil, removes) the fault plane and
// republishes so the current snapshot carries a fresh mask. Snapshots
// then skip dead candidates during routing with zero extra
// allocations. The mask is re-materialised at every publication; after
// reconfiguring the plane (a partition cut or heal), call Publish to
// propagate the new epoch immediately rather than waiting for the next
// membership boundary.
func (p *Publisher) SetFaultPlane(fp FaultPlane) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults = fp
	p.plane++
	p.publishLocked()
}

// SetVantage declares the identifier the publisher itself serves from.
// With a vantage and a ReachabilityPlane, published masks also cover
// nodes unreachable *from the vantage* — the far side of a partition —
// so a partitioned publisher serves exactly the component it can
// actually reach.
func (p *Publisher) SetVantage(k keyspace.Key) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.vantage, p.hasVantage = k, true
	p.publishLocked()
}

// PublisherOption configures a Publisher.
type PublisherOption func(*Publisher)

// PublishEvery sets the epoch boundary: a new snapshot is published
// after every k membership events (default 64). k = 1 publishes on
// every event.
func PublishEvery(k int) PublisherOption {
	return func(p *Publisher) {
		if k > 0 {
			p.every = k
		}
	}
}

// NewPublisher wraps dyn and publishes its first snapshot (epoch 1).
func NewPublisher(dyn Dynamic, opts ...PublisherOption) (*Publisher, error) {
	if dyn == nil {
		return nil, fmt.Errorf("overlaynet: nil dynamic overlay")
	}
	p := &Publisher{dyn: dyn, every: defaultPublishEvery}
	for _, opt := range opts {
		opt(p)
	}
	p.mu.Lock()
	p.publishLocked()
	p.mu.Unlock()
	return p, nil
}

// Snapshot returns the current epoch's snapshot: one atomic load, safe
// from any goroutine, never nil.
func (p *Publisher) Snapshot() *Snapshot { return p.cur.Load() }

// Epoch returns the current publication epoch.
func (p *Publisher) Epoch() uint64 { return p.Snapshot().epoch }

// Publish forces an epoch boundary: the wrapped overlay's current state
// is captured and published regardless of how many events are pending.
// It returns the new snapshot.
func (p *Publisher) Publish() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.publishLocked()
	return p.cur.Load()
}

// publishLocked captures and atomically swaps in a fresh snapshot.
// Callers hold p.mu.
func (p *Publisher) publishLocked() {
	p.epoch++
	s := NewSnapshot(p.dyn)
	s.epoch = p.epoch
	if p.faults != nil {
		s.faults = p.faultMaskLocked(s)
	}
	p.attachObsLocked(s)
	p.cur.Store(s)
	p.pending = 0
}

// faultMaskLocked returns the fault mask for a snapshot being
// published. When the plane's inputs are unchanged (installed plane,
// its fault epoch, vantage), it is the previous snapshot's mask object
// if the membership is unchanged too, and otherwise that mask patched
// over the key chunks the epoch replaced (patchFaultMask); any other
// change builds a fresh mask. Sharing keeps the no-change publish path
// free of the O(N) mask allocation AND the O(N) plane scan, and
// patching keeps an epoch of churn to one copy plus the plane's answers
// for the slots that changed identifier; snapshots stay immutable
// because a published mask is never written again.
func (p *Publisher) faultMaskLocked(s *Snapshot) *snapFaults {
	if prev := p.cur.Load(); prev != nil && prev.faults != nil &&
		p.maskPlane == p.plane && prev.faults.epoch == p.faults.FaultEpoch() &&
		p.maskVantage == p.vantage && p.maskHasVantage == p.hasVantage {
		if equalKeyViews(prev.keys, s.keys) {
			return prev.faults
		}
		return patchFaultMask(prev, s, p.faults, p.vantage, p.hasVantage)
	}
	f := buildFaultMask(s, p.faults, p.vantage, p.hasVantage)
	p.maskVantage, p.maskHasVantage, p.maskPlane = p.vantage, p.hasVantage, p.plane
	return f
}

// equalKeyViews reports whether two key views hold identical contents,
// by chunk-pointer identity — O(N/chunk) compares, no key reads.
// Pointer-equal chunks cannot differ (chunks are copy-on-write and
// never mutated once shared); pointer-unequal chunks MAY still be
// equal, which only costs a conservative rebuild.
func equalKeyViews(a, b keyView) bool {
	if a.n != b.n || len(a.spine) != len(b.spine) {
		return false
	}
	for j := range a.spine {
		if a.spine[j] != b.spine[j] {
			return false
		}
	}
	return true
}

// afterEventLocked advances the event counter and publishes at the
// epoch boundary. Callers hold p.mu.
func (p *Publisher) afterEventLocked() {
	p.pending++
	if p.pending >= p.every {
		p.publishLocked()
	}
}

// SetOwnershipWatcher forwards the watcher to the wrapped overlay when
// it implements OwnershipReporter, so a store can follow ownership
// through a Publisher without reaching around it. A no-op for overlays
// that cannot narrate their churn (the store's snapshot diff sync is
// the backstop there). The watcher runs on the writer side, inside
// Join/Leave, while the Publisher's mutex is held — it must not call
// back into the Publisher's mutators (Snapshot reads are fine: the
// read path is lock-free).
func (p *Publisher) SetOwnershipWatcher(fn func(OwnershipChange)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.dyn.(OwnershipReporter); ok {
		r.SetOwnershipWatcher(fn)
	}
}

// LiveN returns the wrapped overlay's current population — ahead of
// Snapshot().N() by up to the unpublished pending events. Leave indices
// must be drawn against this value.
func (p *Publisher) LiveN() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dyn.N()
}

// Join implements Dynamic: one membership event on the wrapped overlay,
// then an epoch publication if the boundary was reached.
func (p *Publisher) Join(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.dyn.Join(ctx); err != nil {
		return err
	}
	p.afterEventLocked()
	return nil
}

// Leave implements Dynamic. The index u refers to the wrapped overlay's
// live state (see LiveN), not to a snapshot.
func (p *Publisher) Leave(ctx context.Context, u int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.dyn.Leave(ctx, u); err != nil {
		return err
	}
	p.afterEventLocked()
	return nil
}

// The Overlay read surface delegates to the current snapshot, so a
// Publisher can stand anywhere an Overlay can — every read is
// internally consistent with the epoch it loaded, though two
// consecutive calls may observe different epochs. Batch consumers that
// need one consistent view across many calls should pin a Snapshot
// (QueryRunner does this per batch automatically).

// Kind implements Overlay.
func (p *Publisher) Kind() string { return "publisher:" + p.Snapshot().kind }

// N implements Overlay: the published population.
func (p *Publisher) N() int { return p.Snapshot().N() }

// Key implements Overlay against the current snapshot.
func (p *Publisher) Key(u int) keyspace.Key { return p.Snapshot().Key(u) }

// Keys implements Overlay against the current snapshot.
func (p *Publisher) Keys() []keyspace.Key { return p.Snapshot().Keys() }

// Neighbors implements Overlay against the current snapshot.
func (p *Publisher) Neighbors(u int) []int32 { return p.Snapshot().Neighbors(u) }

// Stats implements Overlay against the current snapshot.
func (p *Publisher) Stats() Stats { return p.Snapshot().Stats() }

// NewRouter returns a router that re-pins itself to the latest epoch on
// every Route call (one atomic load per query, zero allocations).
// Loops that prefer batch-consistent routing should pin explicitly:
// pub.Snapshot().NewRouter() and Rebind at their own boundary.
func (p *Publisher) NewRouter() Router {
	return &publishedRouter{p: p}
}

type publishedRouter struct {
	p *Publisher
	r SnapshotRouter
}

func (r *publishedRouter) Route(src int, target keyspace.Key) Result {
	r.r.Rebind(r.p.Snapshot())
	return r.r.Route(src, target)
}
