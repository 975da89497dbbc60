package main

import (
	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/overlaynet"
	"smallworld/store"
	"smallworld/wire"
)

// The wrappers below reach each layer through an interface its public
// API already accepts, so the traced run measures the unmodified
// library. They are installed only in traced runs.

// Shard protocol frame types, as documented in overlaynet/shard/cluster.go
// (a forward payload starts with the origin client's address).
const (
	frameQuery   = 0x01
	frameForward = 0x02
	frameResult  = 0x03
)

// shardReq is the request id of a sharded lookup: the client's index
// and the frame correlation id, which a Client increments once per
// attempt (and the benchmark's reliable transport needs no retries).
func shardReq(client uint32, corr uint64) uint64 { return uint64(client)<<40 | corr }

// traceWire is a wire.Transport that times Send, the mailbox wait from
// send to handler entry, and each handler, for sampled requests; and
// counts frames, bytes and per-shard deliveries for every request while
// tracing is on.
type traceWire struct {
	inner wire.Transport
	r     *run
	k     int // shard count: addresses below k are shards
	// Per shard address, touched only by that shard's goroutine: the
	// open handler span, and when the handler's last Send returned.
	cur      []int32
	lastSend []int64
}

func newTraceWire(inner wire.Transport, r *run, k int) *traceWire {
	cur := make([]int32, k)
	for i := range cur {
		cur[i] = -1
	}
	return &traceWire{inner: inner, r: r, k: k, cur: cur, lastSend: make([]int64, k)}
}

// request identifies the lookup a frame belongs to.
func (t *traceWire) request(f wire.Frame) (req uint64, sampled bool) {
	var origin wire.Addr
	switch f.Type {
	case frameQuery:
		origin = f.From
	case frameForward:
		rd := wire.NewReader(f.Payload)
		origin = wire.Addr(rd.U32())
	case frameResult:
		origin = f.To
	default:
		return 0, false
	}
	if int(origin) < t.k {
		return 0, false
	}
	return shardReq(uint32(int(origin)-t.k), f.Corr), f.Corr%sampleEvery == 0
}

// root returns the open root span of req, or -1.
func (t *traceWire) root(req uint64) int32 {
	tr := t.r.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if id, ok := tr.roots[req]; ok {
		return id
	}
	return -1
}

func (t *traceWire) Listen(a wire.Addr, h wire.Handler) error {
	return t.inner.Listen(a, func(frame []byte) {
		tr := t.r.tr
		if !tr.on.Load() {
			h(frame)
			return
		}
		if int(a) < t.k && int(a) < maxShards {
			t.r.c.shardLoad[a].Add(1)
		}
		f, _, err := wire.ParseFrame(frame)
		if err != nil {
			h(frame)
			return
		}
		req, sampled := t.request(f)
		root := int32(-1)
		if sampled {
			root = t.root(req)
		}
		if root < 0 {
			h(frame)
			return
		}
		entry := now()
		tr.mu.Lock()
		sent, ok := tr.sent[req]
		tr.mu.Unlock()
		if ok {
			// The receiver can enter its handler before the sender's Send
			// returns; that wait is then zero, not negative.
			tr.add(span{req: req, parent: root, kind: kMailbox, tid: tidShard + int32(a), start: min(sent, entry), end: entry})
		}
		kind := kResultH
		switch f.Type {
		case frameQuery:
			kind = kQueryH
		case frameForward:
			kind = kForwardH
		}
		id := tr.begin(req, root, kind, tidShard+int32(a))
		if int(a) >= t.k {
			h(frame)
			tr.end(id)
			return
		}
		t.cur[a], t.lastSend[a] = id, 0
		h(frame)
		t.cur[a] = -1
		// Once a shard handler has sent the query on, the rest of it
		// (counters, returning to the drain loop) runs beside the next
		// hop rather than before it: end the span at its last Send.
		end := now()
		if ls := t.lastSend[a]; ls > 0 && ls < end {
			end = ls
		}
		tr.endAt(id, end)
	})
}

func (t *traceWire) Send(to wire.Addr, frame []byte) error {
	tr := t.r.tr
	if !tr.on.Load() {
		return t.inner.Send(to, frame)
	}
	t.r.c.frames.Add(1)
	t.r.c.frameBytes.Add(int64(len(frame)))
	f, _, err := wire.ParseFrame(frame)
	if err != nil {
		return t.inner.Send(to, frame)
	}
	req, sampled := t.request(f)
	parent := int32(-1)
	if sampled {
		if int(f.From) < t.k {
			parent = t.cur[f.From] // sent from inside a shard handler
		} else {
			parent = t.root(req)
		}
	}
	if parent < 0 {
		return t.inner.Send(to, frame)
	}
	s := span{req: req, parent: parent, kind: kWireSend, tid: tidShard + int32(f.From), start: now()}
	err = t.inner.Send(to, frame)
	s.end = now()
	tr.add(s)
	if int(f.From) < t.k {
		t.lastSend[f.From] = s.end
	}
	tr.mu.Lock()
	tr.sent[req] = s.end
	tr.mu.Unlock()
	return err
}

func (t *traceWire) Close() error { return t.inner.Close() }

// traceNet is the robust router's overlaynet.Transport over a netmodel
// plane. It forwards Dead as well: the router classifies outcomes
// through that optional method, so dropping it would change results.
type traceNet struct {
	inner  *netmodel.Model
	r      *run
	on     bool   // count this request
	parent int32  // open robust-route span, -1 when not sampled
	req    uint64 // request id of parent
}

func (t *traceNet) Send(from, to keyspace.Key) netmodel.Delivery {
	if !t.on {
		return t.inner.Send(from, to)
	}
	var s span
	if t.parent >= 0 {
		s = span{req: t.req, parent: t.parent, kind: kNetSend, tid: tidClient, start: now()}
	}
	d := t.inner.Send(from, to)
	if t.parent >= 0 {
		s.end = now()
		t.r.tr.add(s)
	}
	c := &t.r.c
	c.netSends.Add(1)
	switch d.Status {
	case netmodel.SendLost:
		c.netLost.Add(1)
	case netmodel.SendUnreachable:
		c.netUnreachable.Add(1)
	}
	return d
}

func (t *traceNet) Misroute(at keyspace.Key) bool { return t.inner.Misroute(at) }

func (t *traceNet) Dead(k keyspace.Key) bool { return t.inner.Dead(k) }

// traceLocator is a store.Locator that times each locate route of a
// sampled store op.
type traceLocator struct {
	inner  *overlaynet.SnapshotRouter
	r      *run
	parent int32 // open store-op span, -1 when not sampled
	req    uint64
}

var _ store.Locator = (*traceLocator)(nil)

func (l *traceLocator) Route(src int, target keyspace.Key) overlaynet.Result {
	if l.parent < 0 {
		return l.inner.Route(src, target)
	}
	id := l.r.tr.begin(l.req, l.parent, kLocate, tidClient)
	res := l.inner.Route(src, target)
	l.r.tr.end(id)
	return res
}

func (l *traceLocator) Rebind(s *overlaynet.Snapshot) { l.inner.Rebind(s) }

// traceWatcher wraps store.ApplyChange as the publisher's ownership
// watcher, timing each call inside a traced membership event.
func traceWatcher(c *churner, st *store.Store) func(overlaynet.OwnershipChange) {
	return func(ch overlaynet.OwnershipChange) {
		if c.span < 0 {
			st.ApplyChange(ch)
			return
		}
		id := c.r.tr.begin(churnReq|c.req, c.span, kHandover, tidChurn)
		st.ApplyChange(ch)
		c.r.tr.end(id)
	}
}
