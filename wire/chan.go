package wire

import (
	"sync"
	"sync/atomic"

	"smallworld/obs"
)

// ChanTransport is the in-process transport: every endpoint is an
// unbounded FIFO mailbox drained by one goroutine, so Send never
// blocks and a handler is free to Send anywhere — including back along
// the path that delivered to it — without deadlock (the property a
// cross-shard forwarding chain A→B→A needs). Delivery between one
// sender/receiver pair is in send order; frames are copied on Send, so
// the caller's buffer is immediately reusable and the handler's view
// is stable for the duration of the call.
type ChanTransport struct {
	mu     sync.Mutex
	eps    map[Addr]*chanEndpoint
	closed bool

	// bufs recycles delivery buffers: Send takes one, the drain loop
	// returns it after the handler, so a steady-state serving loop
	// allocates nothing per message.
	bufs sync.Pool

	sends atomic.Uint64
	bytes atomic.Uint64

	// Observability, nil when off (one nil check per Send).
	obsReg  *obs.Registry
	obsHint obs.Hint
}

// chanEndpoint is one mailbox + its single-threaded drain loop.
type chanEndpoint struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte
	head   int
	closed bool
	done   chan struct{}
}

// NewChan returns an empty channel transport.
func NewChan() *ChanTransport {
	t := &ChanTransport{eps: make(map[Addr]*chanEndpoint)}
	t.bufs.New = func() any { b := make([]byte, 0, 64); return &b }
	return t
}

// SetObs installs a metrics registry: every delivered Send counts one
// frame and its bytes into the wire counter family. Install before
// concurrent use.
func (t *ChanTransport) SetObs(reg *obs.Registry) {
	t.obsReg = reg
	t.obsHint = reg.NextHint()
}

// Listen implements Transport, spawning the endpoint's drain loop.
func (t *ChanTransport) Listen(a Addr, h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if _, ok := t.eps[a]; ok {
		return ErrBound
	}
	ep := &chanEndpoint{done: make(chan struct{})}
	ep.cond = sync.NewCond(&ep.mu)
	t.eps[a] = ep
	go t.drain(ep, h)
	return nil
}

// drain delivers queued frames to h one at a time, in order.
func (t *ChanTransport) drain(ep *chanEndpoint, h Handler) {
	defer close(ep.done)
	for {
		ep.mu.Lock()
		for ep.head == len(ep.queue) && !ep.closed {
			ep.cond.Wait()
		}
		if ep.head == len(ep.queue) { // closed and fully drained
			ep.mu.Unlock()
			return
		}
		buf := ep.queue[ep.head]
		ep.queue[ep.head] = nil
		ep.head++
		if ep.head == len(ep.queue) {
			ep.queue, ep.head = ep.queue[:0], 0
		}
		ep.mu.Unlock()
		h(buf)
		b := buf[:0]
		t.bufs.Put(&b)
	}
}

// Send implements Transport: copy the frame into a pooled buffer and
// enqueue it on the destination's mailbox.
func (t *ChanTransport) Send(to Addr, frame []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	ep := t.eps[to]
	t.mu.Unlock()
	if ep == nil {
		return ErrNoRoute
	}
	bp := t.bufs.Get().(*[]byte)
	buf := append((*bp)[:0], frame...)
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		t.bufs.Put(bp)
		return ErrClosed
	}
	// Count before the frame is visible to the drain loop, so whoever
	// handles it, and whatever it causes, sees the send counted.
	t.sends.Add(1)
	t.bytes.Add(uint64(len(frame)))
	if reg := t.obsReg; reg != nil {
		reg.WireSends.Inc(t.obsHint)
		reg.WireBytes.Add(t.obsHint, uint64(len(frame)))
	}
	ep.queue = append(ep.queue, buf)
	ep.mu.Unlock()
	ep.cond.Signal()
	return nil
}

// Close implements Transport: stop accepting sends, let every mailbox
// finish its queued deliveries, and wait for the drain loops to exit.
func (t *ChanTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	eps := make([]*chanEndpoint, 0, len(t.eps))
	for _, ep := range t.eps {
		eps = append(eps, ep)
	}
	t.mu.Unlock()
	for _, ep := range eps {
		ep.mu.Lock()
		ep.closed = true
		ep.mu.Unlock()
		ep.cond.Broadcast()
	}
	for _, ep := range eps {
		<-ep.done
	}
	return nil
}

// Stats returns the total frames and bytes delivered to mailboxes
// since construction.
func (t *ChanTransport) Stats() (sends, bytes uint64) {
	return t.sends.Load(), t.bytes.Load()
}
