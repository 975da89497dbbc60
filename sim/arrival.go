package sim

import (
	"fmt"
	"math"

	"smallworld/dist"
	"smallworld/netmodel"
	"smallworld/xrand"
)

// Arrival is a composable membership-event source. The engine calls
// Start once per Run with the process's private random stream and
// schedules the returned firing time; each Fire executes the process at
// the engine's current time — mutating membership through the Engine's
// Join/Leave methods — and returns the next firing time. A negative
// time means "never" (from Start) or "done" (from Fire).
//
// Stateful implementations must reset all internal state in Start so a
// Scenario value replays identically across Runs.
type Arrival interface {
	// Name labels the process in scenario descriptions.
	Name() string
	// Start resets the process and returns its first firing time.
	Start(r *xrand.Stream) float64
	// Fire executes the process at e.Now() and returns the next firing.
	Fire(e *Engine, r *xrand.Stream) float64
}

// PoissonChurn is memoryless background churn: joins arrive at JoinRate
// and departures at LeaveRate (events per unit of virtual time), merged
// into one Poisson process of rate JoinRate+LeaveRate whose firings are
// joins with probability JoinRate/(JoinRate+LeaveRate). Equal rates
// hold the population stationary in expectation.
type PoissonChurn struct {
	JoinRate, LeaveRate float64
}

// Name implements Arrival.
func (p PoissonChurn) Name() string { return "poisson-churn" }

func (p PoissonChurn) rate() float64 { return p.JoinRate + p.LeaveRate }

// Start implements Arrival.
func (p PoissonChurn) Start(r *xrand.Stream) float64 {
	if p.rate() <= 0 {
		return -1
	}
	return r.ExpFloat64() / p.rate()
}

// Fire implements Arrival.
func (p PoissonChurn) Fire(e *Engine, r *xrand.Stream) float64 {
	if r.Float64()*p.rate() < p.JoinRate {
		e.Join()
	} else {
		e.LeaveRandom()
	}
	return e.Now() + r.ExpFloat64()/p.rate()
}

// FlashCrowd is a burst of Joins arrivals spread evenly over Over time
// units starting at At — the sudden-popularity scenario that stresses
// join cost and routing-table adaptation.
type FlashCrowd struct {
	At    float64
	Joins int
	Over  float64

	left int
}

// Name implements Arrival.
func (f *FlashCrowd) Name() string { return "flash-crowd" }

// Start implements Arrival.
func (f *FlashCrowd) Start(r *xrand.Stream) float64 {
	f.left = f.Joins
	if f.Joins <= 0 {
		return -1
	}
	return f.At
}

// Fire implements Arrival.
func (f *FlashCrowd) Fire(e *Engine, r *xrand.Stream) float64 {
	e.Join()
	f.left--
	if f.left <= 0 {
		return -1
	}
	return e.Now() + f.Over/float64(f.Joins)
}

// Diurnal is a non-homogeneous Poisson churn process whose rate follows
// a sine wave: rate(t) = MeanRate·(1 + Amplitude·sin(2πt/Period)). It
// is sampled by thinning against the peak rate, so the virtual-time
// schedule stays exact. Firings are joins with probability JoinFrac
// (default 0.5, stationary population).
type Diurnal struct {
	Period    float64
	MeanRate  float64
	Amplitude float64 // in [0,1)
	JoinFrac  float64
}

// Name implements Arrival.
func (d Diurnal) Name() string { return "diurnal" }

func (d Diurnal) peak() float64 { return d.MeanRate * (1 + d.Amplitude) }

// Start implements Arrival.
func (d Diurnal) Start(r *xrand.Stream) float64 {
	if d.MeanRate <= 0 || d.Period <= 0 {
		return -1
	}
	return r.ExpFloat64() / d.peak()
}

// Fire implements Arrival.
func (d Diurnal) Fire(e *Engine, r *xrand.Stream) float64 {
	rate := d.MeanRate * (1 + d.Amplitude*math.Sin(2*math.Pi*e.Now()/d.Period))
	if r.Float64()*d.peak() < rate { // thinning acceptance
		jf := d.JoinFrac
		if jf <= 0 {
			jf = 0.5
		}
		if r.Bool(jf) {
			e.Join()
		} else {
			e.LeaveRandom()
		}
	}
	return e.Now() + r.ExpFloat64()/d.peak()
}

// MassFailure is a correlated failure: at time At a fraction Frac of
// the current population departs at once, and — when RecoverOver is
// positive — the same number of fresh peers rejoins spread evenly over
// the recovery interval.
type MassFailure struct {
	At          float64
	Frac        float64
	RecoverOver float64

	killed    bool
	toRecover int
	step      float64
}

// Name implements Arrival.
func (m *MassFailure) Name() string { return "mass-failure" }

// Start implements Arrival.
func (m *MassFailure) Start(r *xrand.Stream) float64 {
	m.killed, m.toRecover, m.step = false, 0, 0
	if m.Frac <= 0 {
		return -1
	}
	return m.At
}

// Fire implements Arrival.
func (m *MassFailure) Fire(e *Engine, r *xrand.Stream) float64 {
	if !m.killed {
		m.killed = true
		kill := int(m.Frac * float64(e.N()))
		departed := 0
		for i := 0; i < kill; i++ {
			if e.LeaveRandom() {
				departed++
			}
		}
		if departed == 0 || m.RecoverOver <= 0 {
			return -1
		}
		m.toRecover = departed
		m.step = m.RecoverOver / float64(departed)
		return e.Now() + m.step
	}
	e.Join()
	m.toRecover--
	if m.toRecover <= 0 {
		return -1
	}
	return e.Now() + m.step
}

// Sessions models peers with finite lifetimes: joins arrive at Rate,
// and each joining peer's departure is scheduled after a session length
// drawn from the Lifetime distribution (a dist shape over [0,1),
// stretched by Scale into virtual time). The base population never
// leaves through this process; the steady-state surplus is
// Rate·E[lifetime] peers above the starting size.
//
// True session semantics need an overlay that preserves identifiers
// across membership changes (the protocol overlay does). On
// rebuild-wrapped overlays every event resamples all keys, so
// scheduled departures usually miss — counted in Totals.SessionMisses
// — and the population grows; model such overlays with PoissonChurn
// instead.
type Sessions struct {
	Rate     float64
	Lifetime dist.Distribution // nil means uniform
	Scale    float64           // default 1
}

// Name implements Arrival.
func (s Sessions) Name() string { return "sessions" }

// Start implements Arrival.
func (s Sessions) Start(r *xrand.Stream) float64 {
	if s.Rate <= 0 {
		return -1
	}
	return r.ExpFloat64() / s.Rate
}

// Fire implements Arrival.
func (s Sessions) Fire(e *Engine, r *xrand.Stream) float64 {
	if key, ok := e.JoinSession(); ok {
		life := s.Lifetime
		if life == nil {
			life = dist.Uniform{}
		}
		scale := s.Scale
		if scale <= 0 {
			scale = 1
		}
		e.ScheduleSessionEnd(key, scale*life.Quantile(r.Float64()))
	}
	return e.Now() + r.ExpFloat64()/s.Rate
}

// PartitionEvent cuts the scenario's fault plane at At — into key-space
// segments (Cuts, alternating between two components, as
// netmodel.Partition documents) or a random node set (Frac) — and,
// when HealAt > At, heals it at HealAt. It fires at most twice and
// mutates no membership: nodes stay up, messages across the cut just
// stop arriving. Scenarios that schedule one without configuring
// Faults get an otherwise-perfect plane automatically.
type PartitionEvent struct {
	At     float64
	HealAt float64
	Cuts   []float64
	Frac   float64
	Seed   uint64

	cut bool
}

// Name implements Arrival.
func (p *PartitionEvent) Name() string { return "partition" }

// Start implements Arrival.
func (p *PartitionEvent) Start(r *xrand.Stream) float64 {
	p.cut = false
	if p.At < 0 || (len(p.Cuts) == 0 && p.Frac <= 0) {
		return -1
	}
	return p.At
}

// Fire implements Arrival.
func (p *PartitionEvent) Fire(e *Engine, r *xrand.Stream) float64 {
	if !p.cut {
		p.cut = true
		e.SetPartition(netmodel.Partition{Cuts: p.Cuts, Frac: p.Frac, Seed: p.Seed})
		if p.HealAt > p.At {
			return p.HealAt
		}
		return -1
	}
	e.HealPartition()
	return -1
}

// Maintenance fires a periodic maintenance round (Engine.Maintain)
// every Every time units, modelling the paper's iterative-refinement
// process running on a timer. It is a no-op on overlays that do not
// implement overlaynet.Maintainer.
type Maintenance struct {
	Every float64
}

// Name implements Arrival.
func (m Maintenance) Name() string { return "maintenance" }

// Start implements Arrival.
func (m Maintenance) Start(r *xrand.Stream) float64 {
	if m.Every <= 0 {
		return -1
	}
	return m.Every
}

// Fire implements Arrival.
func (m Maintenance) Fire(e *Engine, r *xrand.Stream) float64 {
	e.Maintain()
	return e.Now() + m.Every
}

// Op is one membership operation — the single churn vocabulary shared
// by trace replay, the arrival processes and the examples.
type Op uint8

const (
	// OpJoin adds a peer.
	OpJoin Op = iota
	// OpLeave removes a random peer.
	OpLeave
)

// String returns the op name.
func (o Op) String() string {
	switch o {
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// BernoulliTrace generates a length-n op sequence where each op is a
// join with probability joinFrac (otherwise a leave). joinFrac > 0.5
// grows the network, < 0.5 shrinks it. It is the promotion of the old
// one-shot workload churn trace into the sim vocabulary.
func BernoulliTrace(n int, joinFrac float64, r *xrand.Stream) []Op {
	if joinFrac < 0 || joinFrac > 1 {
		panic(fmt.Sprintf("sim: joinFrac %v outside [0,1]", joinFrac))
	}
	ops := make([]Op, n)
	for i := range ops {
		if r.Bool(joinFrac) {
			ops[i] = OpJoin
		} else {
			ops[i] = OpLeave
		}
	}
	return ops
}
