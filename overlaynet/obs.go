package overlaynet

import (
	"smallworld/obs"
)

// This file wires the observability plane into the serving path.
// Instrumentation is carried BY snapshots, not by routers: a Publisher
// given a registry/tracer via SetObs attaches an obsHooks to every
// snapshot it publishes, and any router pinned to that snapshot —
// SnapshotRouter, publishedRouter, RobustRouter — picks the hooks up
// from it. Snapshots captured directly through NewSnapshot carry no
// hooks, so ad-hoc captures (sim's store snapshots, tests) stay
// uninstrumented and bit-identical by construction.

// obsHooks is the instrumentation a snapshot carries: the registry to
// count into and the tracer to sample against. It holds no
// per-publication state, so a Publisher builds one per SetObs and
// attaches the same pointer to every snapshot it publishes.
type obsHooks struct {
	reg    *obs.Registry
	tracer *obs.Tracer
}

// obsBinding is a router's view of the hooks it routes under: the
// shard hint and trace sampler it draws from them.
type obsBinding struct {
	hooks   *obsHooks
	hint    obs.Hint
	sampler obs.Sampler
}

// bind adopts h, the hooks of the snapshot a router is pinned to. The
// hint and sampler are re-drawn only when the registry or tracer
// changes, so a router keeps them across epochs of one Publisher.
func (b *obsBinding) bind(h *obsHooks) {
	if h != nil && (b.hooks == nil || h.reg != b.hooks.reg || h.tracer != b.hooks.tracer) {
		b.hint = h.reg.NextHint()
		b.sampler = h.tracer.NewSampler()
	}
	b.hooks = h
}

// SetObs installs a metrics registry and an optional tracer on the
// publisher and republishes, so the current snapshot is already
// instrumented. Every subsequent publication carries the hooks; pass
// (nil, nil) to strip them at the next epoch.
func (p *Publisher) SetObs(reg *obs.Registry, tracer *obs.Tracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.obs = nil
	if reg != nil || tracer != nil {
		p.obs = &obsHooks{reg: reg, tracer: tracer}
	}
	p.obsHint = reg.NextHint()
	p.publishLocked()
}

// attachObsLocked hangs the publisher's hooks on a freshly captured
// snapshot and refreshes the serving-plane gauges. Callers hold p.mu.
func (p *Publisher) attachObsLocked(s *Snapshot) {
	s.obs = p.obs
	if p.obs == nil || p.obs.reg == nil {
		return
	}
	reg := p.obs.reg
	reg.PublishEpochs.Inc(p.obsHint)
	reg.SnapEpoch.Set(int64(s.epoch))
	reg.SnapNodes.Set(int64(s.N()))
	reg.SnapDead.Set(int64(s.DeadCount()))
}

// obsOutcome maps an Outcome to its label index in
// obs.Registry.RouteOutcomes; the identity today, pinned by
// TestOutcomeLabelOrder against the exposition labels.
func obsOutcome(o Outcome) int { return int(o) }
