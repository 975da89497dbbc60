package overlaynet

import (
	"sync/atomic"

	"smallworld/obs"
)

// This file wires the observability plane into the serving path.
// Instrumentation is carried BY snapshots, not by routers: a Publisher
// given a registry/tracer via SetObs attaches an obsHooks to every
// snapshot it publishes, and any router pinned to that snapshot —
// SnapshotRouter, publishedRouter, RobustRouter — picks the hooks up on
// rebind. Snapshots captured directly through NewSnapshot carry no
// hooks, so ad-hoc captures (sim's store snapshots, tests) stay
// uninstrumented and bit-identical by construction.

// obsHooks is the instrumentation a snapshot carries: the registry to
// count into, the tracer to sample against, and — when the registry
// asks for it — one traffic accumulator per edge.
type obsHooks struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	// links[adj.rowStart(starts, u)+j] counts queries forwarded over
	// edge j of u's out-row. Both are built per publication, and
	// updated with one atomic add per routed hop.
	links  []uint64
	starts []int32
}

// countLink counts one query forwarded over edge j of u's row in a.
func (h *obsHooks) countLink(a adjView, u, j int) {
	atomic.AddUint64(&h.links[a.rowStart(h.starts, u)+j], 1)
}

// SetObs installs a metrics registry and an optional tracer on the
// publisher and republishes, so the current snapshot is already
// instrumented. Every subsequent publication carries the hooks; pass
// (nil, nil) to strip them at the next epoch. With reg.TrackLinks set,
// each published snapshot additionally carries a per-edge traffic
// accumulator readable through Snapshot.LinkTraffic.
func (p *Publisher) SetObs(reg *obs.Registry, tracer *obs.Tracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.obsReg, p.obsTracer = reg, tracer
	p.obsHint = reg.NextHint()
	p.publishLocked()
}

// attachObsLocked hangs the publisher's hooks on a freshly captured
// snapshot and refreshes the serving-plane gauges. Callers hold p.mu.
func (p *Publisher) attachObsLocked(s *Snapshot) {
	reg := p.obsReg
	if reg == nil && p.obsTracer == nil {
		return
	}
	h := &obsHooks{reg: reg, tracer: p.obsTracer}
	if reg != nil && reg.TrackLinks {
		h.starts = s.adj.blockStarts()
		h.links = make([]uint64, h.starts[len(h.starts)-1])
	}
	s.obs = h
	if reg != nil {
		reg.PublishEpochs.Inc(p.obsHint)
		reg.SnapEpoch.Set(int64(s.epoch))
		reg.SnapNodes.Set(int64(s.N()))
		reg.SnapDead.Set(int64(s.DeadCount()))
	}
}

// LinkTraffic returns a copy of the snapshot's per-edge traffic
// counters — entry CSR().RowStart(u)+j counts queries routed over edge
// j of u's out-row since this epoch was published — or nil when the
// snapshot does not track links (no registry, or TrackLinks unset).
// This is the observed-load input the adaptive-overlay rewiring work
// consumes.
func (s *Snapshot) LinkTraffic() []uint64 {
	if s.obs == nil || s.obs.links == nil {
		return nil
	}
	out := make([]uint64, len(s.obs.links))
	for i := range out {
		out[i] = atomic.LoadUint64(&s.obs.links[i])
	}
	return out
}

// obsOutcome maps an Outcome to its label index in
// obs.Registry.RouteOutcomes; the identity today, pinned by
// TestOutcomeLabelOrder against the exposition labels.
func obsOutcome(o Outcome) int { return int(o) }
