package overlaynet

import (
	"context"
	"fmt"

	"smallworld/keyspace"
)

// Messenger is implemented by overlays that meter their own protocol
// traffic in overlay hops (the paper's message unit). The dynamics
// simulator uses the maintenance counter to report repair cost per
// membership event.
type Messenger interface {
	Overlay
	// Messages returns cumulative hop counts: total traffic of any kind,
	// and the maintenance share (join routing, link draws, repairs,
	// refinement walks — everything except plain lookups).
	Messages() (total, maintenance int64)
}

// Maintainer is implemented by dynamic overlays with an explicit
// maintenance round — the Section 4.2 protocol's iterative refinement,
// where peers re-estimate the identifier density and re-draw their
// long-range links. Simulated maintenance schedules call Maintain
// between membership events.
type Maintainer interface {
	Overlay
	// Maintain runs one maintenance round. Node indices remain valid,
	// but neighbour sets and routers may change.
	Maintain(ctx context.Context) error
}

// NewRebuild wraps the named registered topology as a Dynamic overlay
// with oracle maintenance: every Join or Leave rebuilds the whole
// overlay at the new population (fresh identifiers, fresh links, seed
// advanced deterministically per generation). It is the idealised
// upper baseline for churn experiments — routing tables are always
// perfectly adapted to the current population, at a rebuild cost no
// deployed system would pay — and it makes every topology in the
// registry drivable by the sim package.
//
// Because each membership change resamples all identifiers, a rebuild
// overlay models routing quality at the current population, not
// continuity of individual nodes across events. For the offline
// small-world constructors, NewIncremental provides the realistic
// counterpart: O(k) local repair per event at matching hop quantiles.
func NewRebuild(ctx context.Context, name string, opts Options) (Dynamic, error) {
	base, err := Build(ctx, name, opts)
	if err != nil {
		return nil, err
	}
	return NewRebuildFrom(base, name, opts)
}

// NewRebuildFrom is NewRebuild with an already-built first generation:
// callers that had to construct the overlay anyway (the CLI probes for
// Dynamic support) avoid paying the full O(N·k) build a second time.
// base must come from Build with the same (name, opts), or the rebuilt
// generations will not continue its trajectory.
func NewRebuildFrom(base Overlay, name string, opts Options) (Dynamic, error) {
	if base == nil {
		return nil, fmt.Errorf("overlaynet: nil base overlay")
	}
	return &rebuildOverlay{name: name, opts: opts, cur: base}, nil
}

// rebuildOverlay delegates the static Overlay surface to the current
// generation and rebuilds it on every membership change.
type rebuildOverlay struct {
	name string
	opts Options
	gen  uint64
	cur  Overlay
}

func (o *rebuildOverlay) Kind() string { return "rebuild:" + o.name }

// Topology forwards the current generation's key-space geometry, when
// it exposes one (the small-world family does; ring-native DHTs don't
// need to).
func (o *rebuildOverlay) Topology() keyspace.Topology {
	if th, ok := o.cur.(topologyHaver); ok {
		return th.Topology()
	}
	return keyspace.Ring
}
func (o *rebuildOverlay) N() int                  { return o.cur.N() }
func (o *rebuildOverlay) Key(u int) keyspace.Key  { return o.cur.Key(u) }
func (o *rebuildOverlay) Keys() []keyspace.Key    { return o.cur.Keys() }
func (o *rebuildOverlay) Neighbors(u int) []int32 { return o.cur.Neighbors(u) }
func (o *rebuildOverlay) NewRouter() Router       { return o.cur.NewRouter() }
func (o *rebuildOverlay) Stats() Stats            { return o.cur.Stats() }

// CaptureSnapshot implements Snapshotter: the current generation is
// never mutated after construction (membership changes replace it
// wholesale), so the snapshot retains it and routes through the
// overlay's own semantics — Chord's clockwise fingers or Pastry's
// digit correction would strand most queries under the generic
// distance-greedy router over the captured rows.
func (o *rebuildOverlay) CaptureSnapshot() *Snapshot {
	var s *Snapshot
	if snapper, ok := o.cur.(Snapshotter); ok {
		s = snapper.CaptureSnapshot()
	} else {
		s = NewSnapshot(o.cur)
		s.src = o.cur
	}
	s.kind = o.Kind()
	return s
}

// Join implements Dynamic by rebuilding at population N+1.
func (o *rebuildOverlay) Join(ctx context.Context) error {
	return o.resize(ctx, o.cur.N()+1)
}

// Leave implements Dynamic by rebuilding at population N-1. The index u
// only needs to be valid; the departing identity is not preserved
// across the rebuild (see NewRebuild).
func (o *rebuildOverlay) Leave(ctx context.Context, u int) error {
	if u < 0 || u >= o.cur.N() {
		return fmt.Errorf("overlaynet: leave of unknown node %d", u)
	}
	return o.resize(ctx, o.cur.N()-1)
}

func (o *rebuildOverlay) resize(ctx context.Context, n int) error {
	if n < 2 {
		return fmt.Errorf("overlaynet: rebuild to %d nodes, need at least 2", n)
	}
	opts := o.opts
	opts.N = n
	// Advance the seed per generation so successive rebuilds draw fresh
	// identifiers while the whole trajectory stays a pure function of
	// the starting options.
	o.gen++
	opts.Seed = o.opts.Seed + o.gen
	next, err := Build(ctx, o.name, opts)
	if err != nil {
		o.gen--
		return err
	}
	o.cur = next
	return nil
}
