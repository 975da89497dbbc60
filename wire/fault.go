package wire

import (
	"sync"

	"smallworld/keyspace"
	"smallworld/netmodel"
)

// FaultTransport filters another transport through a netmodel fault
// plane: every frame is offered to Model.Send as one message between
// the key-space positions of its endpoints, and frames the plane loses
// (or whose destination it reports unreachable) are silently dropped —
// exactly what a lossy datagram network does. Delivered frames pass
// through unmodified and in order; the plane's sampled latency is
// accounted in the model's own observability, not simulated with
// sleeps, so the wall-clock serving loop stays closed-loop.
//
// AddrKey maps an endpoint to its key-space position; the sharded
// serving plane uses each shard's range midpoint, which places shard
// endpoints on the same fault geography (partitions, regional classes)
// as the nodes they serve.
type FaultTransport struct {
	inner Transport

	mu    sync.Mutex // Model is not safe for concurrent use
	model *netmodel.Model
	key   func(Addr) keyspace.Key
}

// NewFault wraps inner with the fault plane. key maps addresses to
// key-space positions; a nil key places every endpoint at 0 (loss
// still applies, partitions become invisible).
func NewFault(inner Transport, model *netmodel.Model, key func(Addr) keyspace.Key) *FaultTransport {
	if key == nil {
		key = func(Addr) keyspace.Key { return 0 }
	}
	return &FaultTransport{inner: inner, model: model, key: key}
}

// Listen implements Transport by delegating to the inner transport.
func (t *FaultTransport) Listen(a Addr, h Handler) error { return t.inner.Listen(a, h) }

// Send implements Transport: offer the frame to the fault plane, drop
// it on loss/unreachable, forward it on delivery. A dropped frame is
// not an error — the sender cannot tell, which is the point.
func (t *FaultTransport) Send(to Addr, frame []byte) error {
	f, _, err := ParseFrame(frame)
	if err != nil {
		return err
	}
	t.mu.Lock()
	del := t.model.Send(t.key(f.From), t.key(to))
	t.mu.Unlock()
	if del.Status != netmodel.SendOK {
		return nil
	}
	return t.inner.Send(to, frame)
}

// Close implements Transport.
func (t *FaultTransport) Close() error { return t.inner.Close() }
