// Package overlay is a concurrent simulation of the network-construction
// protocol sketched in Section 4.2 of the paper: peers join a live ring
// by routing to their own identifier, splice neighbour links with the
// responder, then draw log2(N) values from the link density h_u and route
// to each, adding the responders as long-range neighbours.
//
// Two knowledge regimes are simulated. With an oracle density every peer
// knows the identifier distribution f exactly (the paper's "straight-
// forward" case). Without it, peers estimate f from identifiers observed
// in random walks and *iteratively refine* their routing tables as the
// estimate improves — the paper's proposed self-adjusting process — and
// they estimate the network size from the probability mass between
// themselves and their ring neighbours.
//
// Concurrency model: membership changes (join, leave, link rewiring)
// serialize on the network lock while lookups run concurrently under
// read locks, mimicking a DHT node that serves queries while its
// maintenance thread reorganises state. All message costs are counted in
// overlay hops, the paper's unit.
package overlay

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// Peer is one overlay node. Its link state is guarded by the network
// lock: mutations happen under nw.mu.Lock, reads under nw.mu.RLock.
type Peer struct {
	// ID is the peer's identifier in [0,1).
	ID keyspace.Key

	prev, next *Peer   // ring neighbours
	long       []*Peer // long-range links
	seen       []keyspace.Key
	est        *dist.Piecewise // estimated density (nil in oracle mode)
	nEst       float64         // estimated network size
	rng        *xrand.Stream
	alive      bool
}

// Config describes an overlay simulation.
type Config struct {
	// Dist is the true identifier density f. Joining peers draw their
	// ids from it. Default uniform.
	Dist dist.Distribution
	// Oracle, when true, gives every peer exact knowledge of f and of
	// the network size (the paper's first scenario). When false, peers
	// estimate both locally (the "more realistic situation").
	Oracle bool
	// EstimateBins is the histogram resolution for local density
	// estimation. Default 32.
	EstimateBins int
	// SampleCap bounds the per-peer reservoir of observed identifiers.
	// Default 512.
	SampleCap int
	// Degree returns the number of long-range links as a function of the
	// network size. Default ceil(log2 n).
	Degree func(n int) int
	// Seed drives all randomness.
	Seed uint64
}

// Network is a live overlay.
type Network struct {
	cfg Config

	mu    sync.RWMutex
	peers []*Peer

	master   *xrand.Stream
	masterMu sync.Mutex

	msgs  atomic.Int64 // total overlay hops consumed by all operations
	maint atomic.Int64 // the membership/maintenance share of msgs
}

// New creates an empty network.
func New(cfg Config) *Network {
	if cfg.Dist == nil {
		cfg.Dist = dist.Uniform{}
	}
	if cfg.EstimateBins <= 0 {
		cfg.EstimateBins = 32
	}
	if cfg.SampleCap <= 0 {
		cfg.SampleCap = 512
	}
	if cfg.Degree == nil {
		cfg.Degree = func(n int) int {
			if n <= 1 {
				return 0
			}
			return int(math.Ceil(math.Log2(float64(n))))
		}
	}
	return &Network{cfg: cfg, master: xrand.New(cfg.Seed)}
}

// Messages returns the total number of overlay hops consumed so far.
func (nw *Network) Messages() int64 { return nw.msgs.Load() }

// MaintMessages returns the overlay hops consumed by membership and
// maintenance traffic — join routing, long-range link draws, leave
// repairs and refinement walks — as opposed to plain lookups. The churn
// simulator reports this as repair cost per membership event.
func (nw *Network) MaintMessages() int64 { return nw.maint.Load() }

// Size returns the current number of peers.
func (nw *Network) Size() int {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return len(nw.peers)
}

// Peers returns a snapshot of the current peers.
func (nw *Network) Peers() []*Peer {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return append([]*Peer(nil), nw.peers...)
}

// nextSeed hands out deterministic per-peer seeds.
func (nw *Network) nextSeed() uint64 {
	nw.masterMu.Lock()
	defer nw.masterMu.Unlock()
	return nw.master.Uint64()
}

// Bootstrap creates the initial ring of n peers with ids drawn from f and
// long-range links drawn by the protocol. It must be called once, before
// Join/Lookup traffic. It returns an error if the network is non-empty
// or n < 2.
func (nw *Network) Bootstrap(n int) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if len(nw.peers) != 0 {
		return fmt.Errorf("overlay: bootstrap on non-empty network")
	}
	if n < 2 {
		return fmt.Errorf("overlay: bootstrap needs n >= 2, got %d", n)
	}
	idRng := xrand.New(nw.nextSeed())
	ids := dist.SampleN(nw.cfg.Dist, idRng, n)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i := 0; i < n; i++ {
		p := &Peer{ID: ids[i], rng: xrand.New(nw.nextSeed()), alive: true}
		nw.peers = append(nw.peers, p)
	}
	for i, p := range nw.peers {
		p.next = nw.peers[(i+1)%n]
		p.prev = nw.peers[(i+n-1)%n]
	}
	for _, p := range nw.peers {
		p.refreshKnowledge(nw)
		nw.drawLongLinksLocked(p)
	}
	return nil
}

// refreshKnowledge updates the peer's view of f and of the network size.
// Oracle mode copies the truth; otherwise the density comes from the
// peer's observation reservoir and the size from the mass between its
// ring neighbours (expected 2/n), the standard local estimator.
func (p *Peer) refreshKnowledge(nw *Network) {
	if nw.cfg.Oracle {
		p.est = nil
		p.nEst = float64(len(nw.peers))
		return
	}
	p.est = dist.Estimate(p.seen, nw.cfg.EstimateBins)
	gap := p.cdf(nw, p.next.ID) - p.cdf(nw, p.prev.ID)
	if gap < 0 {
		gap += 1
	}
	if gap <= 0 {
		p.nEst = 2
		return
	}
	p.nEst = 2 / gap
	if p.nEst < 2 {
		p.nEst = 2
	}
}

// cdf evaluates the peer's working CDF: the truth in oracle mode, the
// local estimate otherwise.
func (p *Peer) cdf(nw *Network, x keyspace.Key) float64 {
	if nw.cfg.Oracle {
		return nw.cfg.Dist.CDF(float64(x))
	}
	return p.est.CDF(float64(x))
}

// quantile is the inverse of cdf.
func (p *Peer) quantile(nw *Network, q float64) keyspace.Key {
	if nw.cfg.Oracle {
		return keyspace.Clamp(nw.cfg.Dist.Quantile(q))
	}
	return keyspace.Clamp(p.est.Quantile(q))
}

// drawLongLinksLocked replaces p's long-range links with fresh draws from
// the link density h_u of Eq. (7): mass offsets harmonic on [1/n, 1/2],
// mapped through the quantile and resolved by routing. Caller holds nw.mu.
func (nw *Network) drawLongLinksLocked(p *Peer) int {
	k := nw.cfg.Degree(len(nw.peers))
	p.long = p.long[:0]
	msgs := 0
	lo := 1 / p.nEst
	const hi = 0.5
	if lo >= hi {
		return 0
	}
	for attempts := 0; len(p.long) < k && attempts < 8*k; attempts++ {
		m := p.rng.LogUniform(lo, hi)
		if p.rng.Bool(0.5) {
			m = -m
		}
		pos := p.cdf(nw, p.ID) + m
		pos -= math.Floor(pos) // wrap in normalised space
		target := p.quantile(nw, pos)
		v, hops := nw.lookupLocked(p, target)
		msgs += hops
		if v != nil && v != p && v != p.prev && v != p.next && !containsPeer(p.long, v) {
			p.long = append(p.long, v)
			p.observe(nw, v.ID)
		}
	}
	nw.msgs.Add(int64(msgs))
	nw.maint.Add(int64(msgs))
	return msgs
}

func containsPeer(xs []*Peer, x *Peer) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// observe records an identifier into the peer's estimation reservoir.
func (p *Peer) observe(nw *Network, id keyspace.Key) {
	if nw.cfg.Oracle {
		return
	}
	if len(p.seen) < nw.cfg.SampleCap {
		p.seen = append(p.seen, id)
		return
	}
	// Reservoir replacement keeps a uniform sample of everything seen.
	if i := p.rng.Intn(len(p.seen) + 1); i < len(p.seen) {
		p.seen[i] = id
	}
}

// links returns the peer's current out-links. Caller must hold nw.mu in
// at least read mode.
func (p *Peer) links() []*Peer {
	out := make([]*Peer, 0, 2+len(p.long))
	if p.prev != nil {
		out = append(out, p.prev)
	}
	if p.next != nil {
		out = append(out, p.next)
	}
	out = append(out, p.long...)
	return out
}

// Links returns a snapshot of p's current out-links (ring neighbours
// plus long-range links). Safe for concurrent use; the caller owns the
// returned slice.
func (nw *Network) Links(p *Peer) []*Peer {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return p.links()
}

// Lookup routes from peer `from` to the peer closest to target, counting
// hops. Safe for concurrent use.
func (nw *Network) Lookup(from *Peer, target keyspace.Key) (*Peer, int) {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	p, hops := nw.lookupLocked(from, target)
	nw.msgs.Add(int64(hops))
	return p, hops
}

// lookupLocked is greedy ring-distance routing with the exact key-order
// tie-break. Caller holds nw.mu in read or write mode.
func (nw *Network) lookupLocked(from *Peer, target keyspace.Key) (*Peer, int) {
	cur := from
	hops := 0
	dCur := keyspace.Ring.Distance(cur.ID, target)
	for guard := 0; guard <= 2*len(nw.peers); guard++ {
		var best *Peer
		bestD := dCur
		bestKey := cur.ID
		for _, v := range cur.links() {
			if !v.alive {
				continue
			}
			d := keyspace.Ring.Distance(v.ID, target)
			if keyspace.Ring.Improves(bestKey, v.ID, target, d, bestD) {
				best, bestD, bestKey = v, d, v.ID
			}
		}
		if best == nil {
			return cur, hops
		}
		cur, dCur = best, bestD
		hops++
	}
	return cur, hops
}

// JoinStats reports the message cost of one join.
type JoinStats struct {
	// LocateHops is the cost of routing to the joining peer's own id.
	LocateHops int
	// LinkHops is the cost of the long-range link queries.
	LinkHops int
}

// Total returns the overall message cost.
func (s JoinStats) Total() int { return s.LocateHops + s.LinkHops }

// Join runs the Section 4.2 protocol: draw an id from f, route to it from
// a random bootstrap peer, splice neighbour links with the responder, and
// draw long-range links from h_u. It returns the new peer and the message
// cost.
func (nw *Network) Join() (*Peer, JoinStats, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if len(nw.peers) < 2 {
		return nil, JoinStats{}, fmt.Errorf("overlay: join needs a bootstrapped network")
	}
	rng := xrand.New(nw.nextSeed())
	id := dist.Sample(nw.cfg.Dist, rng)
	for nw.findByIDLocked(id) != nil {
		id = dist.Sample(nw.cfg.Dist, rng) // ids must be unique
	}
	p := &Peer{ID: id, rng: rng, alive: true}

	var stats JoinStats
	bootstrap := nw.peers[rng.Intn(len(nw.peers))]
	closest, hops := nw.lookupLocked(bootstrap, id)
	stats.LocateHops = hops
	nw.msgs.Add(int64(hops))
	nw.maint.Add(int64(hops))

	// Splice p between closest and the neighbour on p's side. Clockwise
	// arc arithmetic rather than shorter-arc distance: adjacent gaps can
	// exceed half the ring in tiny networks.
	var left, right *Peer
	if inArcCW(id, closest.ID, closest.next.ID) {
		left, right = closest, closest.next
	} else {
		left, right = closest.prev, closest
	}
	p.prev, p.next = left, right
	left.next = p
	right.prev = p
	nw.peers = append(nw.peers, p)

	// Seed the newcomer's knowledge with what the join already revealed.
	p.observe(nw, left.ID)
	p.observe(nw, right.ID)
	p.observe(nw, bootstrap.ID)
	p.refreshKnowledge(nw)
	stats.LinkHops = nw.drawLongLinksLocked(p)
	return p, stats, nil
}

// inArcCW reports whether x lies strictly inside the clockwise arc from
// a to b.
func inArcCW(x, a, b keyspace.Key) bool {
	ax := float64(keyspace.Wrap(float64(x) - float64(a)))
	ab := float64(keyspace.Wrap(float64(b) - float64(a)))
	return ax > 0 && ax < ab
}

// findByIDLocked returns the peer with exactly this id, or nil.
func (nw *Network) findByIDLocked(id keyspace.Key) *Peer {
	for _, p := range nw.peers {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// Leave removes p from the overlay: the ring heals around it, and every
// peer that held a long-range link to p refreshes its link set (the
// repair messages are counted like any other protocol traffic). When
// repair is false the dangling links are merely dropped, modelling the
// window before maintenance runs.
func (nw *Network) Leave(p *Peer, repair bool) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if !p.alive || len(nw.peers) <= 2 {
		return
	}
	p.alive = false
	p.prev.next = p.next
	p.next.prev = p.prev
	for i, q := range nw.peers {
		if q == p {
			nw.peers = append(nw.peers[:i], nw.peers[i+1:]...)
			break
		}
	}
	for _, q := range nw.peers {
		lost := false
		for i := 0; i < len(q.long); i++ {
			if q.long[i] == p {
				q.long = append(q.long[:i], q.long[i+1:]...)
				lost = true
				i--
			}
		}
		if lost && repair {
			q.refreshKnowledge(nw)
			nw.drawLongLinksLocked(q)
		}
	}
}

// RandomWalk performs an l-step random walk from p and returns the
// endpoint — the local peer-sampling primitive behind density estimation.
func (nw *Network) RandomWalk(p *Peer, l int) *Peer {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	cur := p
	for i := 0; i < l; i++ {
		ls := cur.links()
		if len(ls) == 0 {
			break
		}
		cur = ls[p.rng.Intn(len(ls))]
	}
	nw.msgs.Add(int64(l))
	nw.maint.Add(int64(l))
	return cur
}

// Refine runs one iterative-refinement round on every peer (the paper's
// self-adjusting process): sample `walks` random-walk endpoints, update
// the local estimate of f and of n, and re-draw the long-range links
// from the improved h_u. No-op in oracle mode beyond link refresh.
func (nw *Network) Refine(walks, walkLen int) {
	// Sampling phase under read lock (concurrent with lookups).
	type sampled struct {
		p   *Peer
		ids []keyspace.Key
	}
	nw.mu.RLock()
	peers := append([]*Peer(nil), nw.peers...)
	nw.mu.RUnlock()
	results := make([]sampled, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *Peer) {
			defer wg.Done()
			ids := make([]keyspace.Key, 0, walks)
			for w := 0; w < walks; w++ {
				nw.mu.RLock()
				cur := p
				for s := 0; s < walkLen; s++ {
					ls := cur.links()
					if len(ls) == 0 {
						break
					}
					// Peer RNGs are not safe for concurrent use; walks
					// for peer i run only on this goroutine.
					cur = ls[p.rng.Intn(len(ls))]
				}
				nw.mu.RUnlock()
				ids = append(ids, cur.ID)
			}
			nw.msgs.Add(int64(walks * walkLen))
			nw.maint.Add(int64(walks * walkLen))
			results[i] = sampled{p: p, ids: ids}
		}(i, p)
	}
	wg.Wait()

	// Re-estimation and rewiring phase under the write lock.
	nw.mu.Lock()
	defer nw.mu.Unlock()
	for _, r := range results {
		if !r.p.alive {
			continue
		}
		for _, id := range r.ids {
			r.p.observe(nw, id)
		}
		r.p.refreshKnowledge(nw)
		nw.drawLongLinksLocked(r.p)
	}
}

// HopStats routes q random peer-to-peer queries and summarises the hops.
func (nw *Network) HopStats(seed uint64, q int) []float64 {
	rng := xrand.New(seed)
	hops := make([]float64, 0, q)
	peers := nw.Peers()
	if len(peers) < 2 {
		return hops
	}
	for i := 0; i < q; i++ {
		src := peers[rng.Intn(len(peers))]
		dst := peers[rng.Intn(len(peers))]
		_, h := nw.Lookup(src, dst.ID)
		hops = append(hops, float64(h))
	}
	return hops
}
