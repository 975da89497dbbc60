package shard

import (
	"fmt"
	"sync/atomic"

	"smallworld/keyspace"
	"smallworld/obs"
	"smallworld/overlaynet"
	"smallworld/wire"
)

// Frame types of the shard serving protocol. The payload layouts are
// fixed little-endian records (see the encode sites); floats travel as
// exact IEEE bits so a forwarded walk resumes from bit-identical
// state.
const (
	// msgQuery: client → shard owning the source node's key.
	// Payload: src u32, target f64.
	msgQuery = 0x01
	// msgForward: shard → shard owning the current node's key.
	// Payload: origin u32, cur u32, hops u32, crossings u32,
	// dCur f64, target f64.
	msgForward = 0x02
	// msgResult: terminal shard → origin client.
	// Payload: dest u32 (two's-complement int32), hops u32,
	// crossings u32, arrived u8.
	msgResult = 0x03
)

// Source supplies the snapshots the cluster serves.
// *overlaynet.Publisher implements it.
type Source interface {
	Snapshot() *overlaynet.Snapshot
}

// Config parameterises a Cluster.
type Config struct {
	// Shards is K, the number of serving shards. 0 means 1.
	Shards int
	// Transport carries every query, forward, and result frame. Nil
	// builds an owned wire.NewChan that Close tears down; a provided
	// transport (e.g. wrapped in wire.NewFault) is the caller's to
	// close.
	Transport wire.Transport
	// Obs, when non-nil, counts shard queries/forwards/hops and
	// cross-shard crossings into the registry's shard family. If the
	// transport is an owned ChanTransport the registry is installed on
	// it too (wire send/byte counters).
	Obs *obs.Registry
}

// Cluster is K shard servers over one transport, all serving the same
// pinned snapshot. Servers listen on addresses 0..K-1; clients are
// allocated addresses from K upward by NewClient.
type Cluster struct {
	m     *Map
	tr    wire.Transport
	ownTr bool
	reg   *obs.Registry

	snap       atomic.Pointer[overlaynet.Snapshot]
	servers    []*server
	nextClient atomic.Uint32
}

// server is one shard's serving loop: single-threaded by the
// transport's per-endpoint delivery contract, so its scratch encode
// buffer needs no lock.
type server struct {
	c    *Cluster
	i    int
	addr wire.Addr
	buf  []byte // payload scratch
	fbuf []byte // frame scratch
	hint obs.Hint
}

// New builds and starts a K-shard cluster serving src's current
// snapshot. Delegated snapshots (Chord, Pastry — see
// Snapshot.Delegated) cannot be walked stepwise and are rejected.
func New(src Source, cfg Config) (*Cluster, error) {
	if src == nil {
		return nil, fmt.Errorf("shard: nil source")
	}
	k := cfg.Shards
	if k == 0 {
		k = 1
	}
	m, err := NewMap(k)
	if err != nil {
		return nil, err
	}
	snap := src.Snapshot()
	if snap == nil {
		return nil, fmt.Errorf("shard: source returned a nil snapshot")
	}
	if snap.Delegated() {
		return nil, fmt.Errorf("shard: %s snapshots delegate routing and cannot be sharded", snap.Kind())
	}
	c := &Cluster{m: m, tr: cfg.Transport, reg: cfg.Obs}
	if c.tr == nil {
		ch := wire.NewChan()
		if cfg.Obs != nil {
			ch.SetObs(cfg.Obs)
		}
		c.tr, c.ownTr = ch, true
	}
	c.snap.Store(snap)
	c.servers = make([]*server, k)
	for i := 0; i < k; i++ {
		sv := &server{c: c, i: i, addr: wire.Addr(i), hint: cfg.Obs.NextHint()}
		if err := c.tr.Listen(sv.addr, sv.handle); err != nil {
			if c.ownTr {
				c.tr.Close()
			}
			return nil, fmt.Errorf("shard: listen %d: %w", i, err)
		}
		c.servers[i] = sv
	}
	return c, nil
}

// Snapshot returns the snapshot the cluster currently serves.
func (c *Cluster) Snapshot() *overlaynet.Snapshot { return c.snap.Load() }

// Rebind atomically moves every shard to a new snapshot epoch. Queries
// in flight across the rebind may mix epochs between their hops;
// callers that need epoch-coherent results (the bit-identity tests,
// the store's membership sync) quiesce in-flight queries first —
// trivially true for request/response clients, which hold at most one
// query in flight each.
func (c *Cluster) Rebind(s *overlaynet.Snapshot) error {
	if s == nil {
		return fmt.Errorf("shard: rebind to nil snapshot")
	}
	if s.Delegated() {
		return fmt.Errorf("shard: %s snapshots delegate routing and cannot be sharded", s.Kind())
	}
	c.snap.Store(s)
	return nil
}

// Close tears down an owned transport (and with it the server drain
// loops). A caller-provided transport is left running.
func (c *Cluster) Close() error {
	if c.ownTr {
		return c.tr.Close()
	}
	return nil
}

// handle is shard i's frame loop.
func (sv *server) handle(frame []byte) {
	f, _, err := wire.ParseFrame(frame)
	if err != nil {
		return // corrupt frame: a real network drops it, so do we
	}
	switch f.Type {
	case msgQuery:
		rd := wire.NewReader(f.Payload)
		src := int(int32(rd.U32()))
		target := keyspace.Key(rd.F64())
		if rd.Err() != nil {
			return
		}
		if reg := sv.c.reg; reg != nil {
			reg.ShardQueries.Inc(sv.hint)
		}
		snap := sv.c.snap.Load()
		d, ok := snap.GreedyInit(src, target)
		if !ok {
			sv.sendResult(f.From, f.Corr, -1, 0, 0, false)
			return
		}
		sv.walk(snap, f.From, f.Corr, src, d, target, 0, 0)
	case msgForward:
		rd := wire.NewReader(f.Payload)
		origin := wire.Addr(rd.U32())
		cur := int(rd.U32())
		hops := int(rd.U32())
		crossings := int(rd.U32())
		dCur := rd.F64()
		target := keyspace.Key(rd.F64())
		if rd.Err() != nil {
			return
		}
		snap := sv.c.snap.Load()
		if cur < 0 || cur >= snap.N() {
			// A forward that raced a shrink rebind names a slot the new
			// epoch no longer has: the query fails cleanly, as a
			// crashed-source query does, instead of leaving a client
			// without a timeout waiting forever.
			sv.sendResult(origin, f.Corr, -1, hops, crossings, false)
			return
		}
		sv.walk(snap, origin, f.Corr, cur, dCur, target, hops, crossings)
	}
}

// walk advances the query while the current node's key stays in this
// shard's range, then either forwards it to the owning shard or sends
// the terminal result back to the origin client. The loop is the exact
// stepwise equivalent of SnapshotRouter's routing loop: hops counts
// improving steps against the same 2N guard, and dCur carries the same
// float state the monolithic loop holds in a register.
func (sv *server) walk(snap *overlaynet.Snapshot, origin wire.Addr, corr uint64,
	cur int, dCur float64, target keyspace.Key, hops, crossings int) {
	guard := snap.GreedyGuard()
	local := 0
	for hops < guard {
		next, dNext := snap.GreedyStep(cur, dCur, target)
		if next == -1 {
			break
		}
		hops++
		local++
		cur, dCur = next, dNext
		if owner := sv.c.m.Of(snap.Key(cur)); owner != sv.i {
			sv.account(local, 0, false)
			sv.forward(owner, origin, corr, cur, dCur, target, hops, crossings+1)
			return
		}
	}
	arrived := snap.GreedyArrived(dCur, target)
	// Counters are flushed before the message leaves, so a client holding
	// its result sees every counter the query moved.
	sv.account(local, crossings, true)
	sv.sendResult(origin, corr, cur, hops, crossings, arrived)
}

// forward hands the query to the shard owning the current node's key.
func (sv *server) forward(owner int, origin wire.Addr, corr uint64,
	cur int, dCur float64, target keyspace.Key, hops, crossings int) {
	p := sv.buf[:0]
	p = wire.AppendU32(p, uint32(origin))
	p = wire.AppendU32(p, uint32(cur))
	p = wire.AppendU32(p, uint32(hops))
	p = wire.AppendU32(p, uint32(crossings))
	p = wire.AppendF64(p, dCur)
	p = wire.AppendF64(p, float64(target))
	sv.send(wire.Addr(owner), msgForward, corr, p)
}

// sendResult reports the terminal to the origin client.
func (sv *server) sendResult(origin wire.Addr, corr uint64, dest, hops, crossings int, arrived bool) {
	p := sv.buf[:0]
	p = wire.AppendU32(p, uint32(int32(dest)))
	p = wire.AppendU32(p, uint32(hops))
	p = wire.AppendU32(p, uint32(crossings))
	a := uint8(0)
	if arrived {
		a = 1
	}
	p = wire.AppendU8(p, a)
	sv.send(origin, msgResult, corr, p)
}

// send frames and ships one protocol message, reusing the server's
// scratch buffer (safe: handlers are single-threaded per endpoint and
// the transport copies on Send).
func (sv *server) send(to wire.Addr, typ uint8, corr uint64, payload []byte) {
	sv.buf = payload
	sv.fbuf = wire.AppendFrame(sv.fbuf[:0], wire.Frame{
		Type: typ, From: sv.addr, To: to, Corr: corr, Payload: payload,
	})
	// Send errors (closed transport, unknown peer) are indistinguishable
	// from loss to the rest of the protocol; the client's timeout is the
	// recovery path either way.
	_ = sv.c.tr.Send(to, sv.fbuf)
}

// account flushes one walk segment's counters.
func (sv *server) account(local, crossings int, terminal bool) {
	reg := sv.c.reg
	if reg == nil {
		return
	}
	if local > 0 {
		reg.ShardHops[sv.i%obs.ShardLabels].Add(sv.hint, uint64(local))
	}
	if terminal {
		reg.CrossShardHops.Observe(float64(crossings))
	} else {
		reg.ShardForwards.Inc(sv.hint)
	}
}
