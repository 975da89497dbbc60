package sim

// Engine-side observability. The event loop is single-goroutine, so the
// engine counts through one registry hint and samples traces through
// one Sampler — both bound once in newEngine. Nothing here reads a
// seeded stream or influences an event: a run with Scenario.Obs/Tracer
// set replays bit-identically to the same run without them.

import (
	"smallworld/overlaynet"
)

// bindObs wires the scenario's registry and tracer into the engine.
func (e *Engine) bindObs() {
	e.obsReg = e.sc.Obs
	e.obsTracer = e.sc.Tracer
	e.obsHint = e.sc.Obs.NextHint()
	e.obsSampler = e.sc.Tracer.NewSampler()
}

// observeQuery publishes counters for one instantaneous routed lookup
// (the legacy fault-free path, plain or store-backed). Callers check
// e.obsReg != nil.
func (e *Engine) observeQuery(res overlaynet.Result) {
	reg := e.obsReg
	h := e.obsHint
	reg.RouteQueries.Inc(h)
	reg.RouteHops.Add(h, uint64(res.Hops))
	if res.Arrived {
		reg.HopsPerQuery.Observe(float64(res.Hops))
	} else {
		reg.RouteFailures.Inc(h)
	}
}

// observeFlight publishes counters for one completed message flight and
// finishes its sampled trace, if it carries one.
func (e *Engine) observeFlight(f *flight, o overlaynet.Outcome, hops, retries int, lat float64) {
	if reg := e.obsReg; reg != nil {
		h := e.obsHint
		reg.RouteQueries.Inc(h)
		reg.RouteHops.Add(h, uint64(hops))
		reg.RouteRetries.Add(h, uint64(retries))
		reg.RouteOutcomes[int(o)].Inc(h)
		if o.Arrived() {
			reg.HopsPerQuery.Observe(float64(hops))
		} else {
			reg.RouteFailures.Inc(h)
		}
		reg.VirtLatency.Observe(lat)
	}
	if f.tr != nil {
		e.obsTracer.Finish(f.tr, f.start+lat, o.String())
		f.tr = nil
	}
}

// observeWindow samples the loop-health gauges at a window edge.
func (e *Engine) observeWindow() {
	reg := e.obsReg
	reg.QueueDepth.Observe(float64(len(e.queue)))
	reg.FlightsActive.Set(int64(len(e.flights) - len(e.freeFl)))
}

// flightOpName labels a flight's trace by the operation it carries.
func flightOpName(op uint8) string {
	switch op {
	case opPut:
		return "put"
	case opGet:
		return "get"
	case opScan:
		return "scan"
	}
	return "flight"
}
