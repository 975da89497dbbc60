package store

import (
	"smallworld/obs"
)

// Observability for the store data plane. The store already accounts
// for every repair event in Stats under its mutex, so instrumentation
// is a delta flush: each public operation snapshots Stats on entry and
// publishes the difference to the registry on exit — no counter update
// sites inside the data-plane logic, and exactly one nil check per
// operation when instrumentation is off. Tracing likewise reads only
// the finished operation's results; nothing here can perturb a seeded
// run.

// SetObs installs a metrics registry and an optional tracer. Operations
// after the call update the store counter family (puts, acked writes,
// gets, scans, read repairs, re-replication, trims, sweeps, bytes
// moved) and the per-op hop histogram, and sample 1-in-N operation
// traces. Pass (nil, nil) to switch instrumentation off again.
func (s *Store) SetObs(reg *obs.Registry, tracer *obs.Tracer) {
	s.lock()
	defer s.mu.Unlock()
	s.obsReg = reg
	s.obsTracer = tracer
	s.obsHint = reg.NextHint()
	s.obsSampler = tracer.NewSampler()
}

// obsFlushLocked publishes the Stats delta an operation produced
// (including repairs its membership sync triggered) and finishes a
// sampled trace for it. Callers hold s.mu; pre is Stats at op entry.
func (s *Store) obsFlushLocked(pre Stats, op string, src int, target float64, hops int) {
	reg := s.obsReg
	if reg == nil && s.obsTracer == nil {
		return
	}
	d := s.stats
	if reg != nil {
		h := s.obsHint
		add := func(c *obs.Counter, n int64) {
			if n > 0 {
				c.Add(h, uint64(n))
			}
		}
		add(&reg.StorePuts, d.Puts-pre.Puts)
		add(&reg.StoreAcked, d.AckedWrites-pre.AckedWrites)
		add(&reg.StoreGets, d.Gets-pre.Gets)
		add(&reg.StoreScans, d.Scans-pre.Scans)
		add(&reg.StoreReadRepairs, d.ReadRepairs-pre.ReadRepairs)
		add(&reg.StoreRereplicated, d.Rereplicated-pre.Rereplicated)
		add(&reg.StoreTrimmed, d.Trimmed-pre.Trimmed)
		add(&reg.StoreSweeps, d.Sweeps-pre.Sweeps)
		add(&reg.StoreBytesMoved, d.BytesMoved-pre.BytesMoved)
		reg.StoreOpHops.Observe(float64(hops))
	}
	if tr := s.obsSampler.Start(op, src, target, 0); tr != nil {
		// One replica span per copy this operation moved (read repair or
		// re-replication); the store does not track which node each went
		// to, so spans carry the event rank only.
		repairs := (d.ReadRepairs - pre.ReadRepairs) + (d.Rereplicated - pre.Rereplicated)
		for i := int64(0); i < repairs; i++ {
			tr.Hop(float64(hops), 0, -1, int(i), 0, obs.SpanReplica, 0)
		}
		s.obsTracer.Finish(tr, float64(hops), "ok")
	}
}
