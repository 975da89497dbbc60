// Package netmodel is the fault plane under every query: a link-level
// model of the hostile network the paper's closing section points at
// ("an unstable P2P environment — nodes are allowed to fail"). It
// decides, per message, whether a hop is delivered, how long it takes,
// and whether the endpoint is dead, slow, byzantine, or on the far side
// of a partition.
//
// The model is deliberately identifier-keyed: a node's fault class
// (dead / slow / byzantine / partition component) is a pure hash of its
// key-space identifier under a salted seed, never of its slot index.
// Slot indices are renamed by churn (NewIncremental moves the last slot
// into every hole a departure opens), so any slot-indexed fault state
// silently migrates between nodes; an identifier survives every rename,
// so the same node keeps the same afflictions for the whole run and a
// snapshot taken at any epoch can reconstruct the fault mask without
// coordination.
//
// Determinism: class membership consumes no generator state (it is a
// hash), and all per-message draws (loss, byzantine drops, latency
// variates, byzantine misroutes) come from one xrand stream owned by
// the Model. The same (Config, seed) therefore replays every delivery
// decision bit-identically, independent of how many nodes exist or in
// what order they joined. The per-message methods (Send, Misroute) are
// single-threaded by design — the sim engine is the only caller; the
// class queries (Dead, Slow, Byzantine, Component, FaultEpoch) are
// safe from any goroutine, which is what the serving path's Publisher
// needs.
package netmodel

import (
	"fmt"
	"math"

	"smallworld/keyspace"
	"smallworld/obs"
	"smallworld/xrand"
)

// SendStatus classifies one message attempt.
type SendStatus uint8

const (
	// SendOK: the message was delivered after Delivery.Latency.
	SendOK SendStatus = iota
	// SendLost: the message vanished in flight; the sender learns
	// nothing until its hop timeout expires. Retrying may succeed.
	SendLost
	// SendUnreachable: the endpoint is dead or in another partition
	// component; retrying the same endpoint cannot succeed.
	SendUnreachable
)

// String returns the status name.
func (s SendStatus) String() string {
	switch s {
	case SendOK:
		return "ok"
	case SendLost:
		return "lost"
	case SendUnreachable:
		return "unreachable"
	default:
		return fmt.Sprintf("SendStatus(%d)", int(s))
	}
}

// Delivery is the outcome of one Send: a status and, for delivered
// messages, the sampled one-way link latency in virtual-time units.
type Delivery struct {
	Latency float64
	Status  SendStatus
}

// Config declares the fault plane. The zero value of every field means
// its documented default, so Config{Loss: 0.05} is a complete, runnable
// plane. Probabilities are per message or per node as documented.
//
// Some parameters are fixed: a delivered hop takes latencyBase plus
// latencyScale times a uniform [0,1) variate (0.002 + 0.002·U
// virtual-time units, before the slow-node factor), and a byzantine
// node drops a message addressed to it with probability byzDrop (0.25)
// and misroutes a query passing through it with probability misroute
// (0.5).
type Config struct {
	// Loss is the independent per-message Bernoulli loss probability.
	Loss float64

	// SlowFrac is the fraction of nodes that are slow: every message
	// they send or receive takes SlowFactor times longer.
	SlowFrac float64
	// SlowFactor is the latency multiplier for slow nodes. Default 4.
	SlowFactor float64

	// DeadFrac is the fraction of nodes that are crashed: every message
	// to or from them is SendUnreachable.
	DeadFrac float64

	// ByzantineFrac is the fraction of nodes that are byzantine: they
	// drop messages addressed to them with probability byzDrop, and
	// misroute queries passing through them (forward to a uniformly
	// random neighbour instead of the greedy choice) with probability
	// misroute.
	ByzantineFrac float64
}

// The fixed parameters of the plane (see Config).
const (
	latencyBase  = 0.002 // per-hop latency floor, virtual-time units
	latencyScale = 0.002 // multiplies the per-hop uniform latency variate
	misroute     = 0.5   // a byzantine node hijacks an arriving query
	byzDrop      = 0.25  // a byzantine node drops a message addressed to it
)

// withDefaults resolves zero-valued fields to their documented
// defaults.
func (c Config) withDefaults() Config {
	if c.SlowFactor <= 0 {
		c.SlowFactor = 4
	}
	return c
}

// Validate rejects configurations New would refuse — exposed for
// callers (package sim) that validate a scenario before building
// anything from it.
func (c Config) Validate() error { return c.validate() }

// validate rejects configurations the engine cannot run on.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"loss", c.Loss},
		{"slow frac", c.SlowFrac},
		{"dead frac", c.DeadFrac},
		{"byzantine frac", c.ByzantineFrac},
	} {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("netmodel: %s %v outside [0,1]", f.name, f.v)
		}
	}
	if math.IsNaN(c.SlowFactor) || math.IsInf(c.SlowFactor, 0) || c.SlowFactor < 0 {
		return fmt.Errorf("netmodel: slow factor %v must be finite and non-negative", c.SlowFactor)
	}
	return nil
}

// Salts separating the per-class hash families. Arbitrary odd
// constants; changing one re-rolls that class's membership everywhere,
// so they are part of the replay format.
const (
	saltDead      = 0xd6e8feb86659fd93
	saltSlow      = 0xa5a3564cd27cbf3b
	saltByzantine = 0x9e6c63d0a54636eb
	saltPartition = 0xc2b2ae3d27d4eb4f
)

// mix is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// hash used to turn (seed, salt, identifier) into class membership.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash01 maps an identifier to a uniform [0,1) variate under a
// pre-mixed class seed.
func hash01(classSeed uint64, k keyspace.Key) float64 {
	h := mix(math.Float64bits(float64(k)) ^ classSeed)
	return float64(h>>11) / (1 << 53)
}

// Model is an instantiated fault plane. Per-message methods (Send,
// Misroute) are NOT safe for concurrent use; class queries are.
type Model struct {
	cfg  Config
	seed uint64

	deadSeed, slowSeed, byzSeed uint64

	rng *xrand.Stream // per-message draws: loss, drops, latency, misroute

	part  partitionState
	epoch epochCounter

	// Observability installed by SetObs: message-plane counters and the
	// per-delivery latency histogram. Updated from values Send computed
	// anyway — never a draw, never a decision.
	obsReg  *obs.Registry
	obsHint obs.Hint
}

// New returns a fault plane driven by cfg, with every random choice
// seeded from seed. The seed should be split from the caller's fault
// stream, independent of churn and load seeds, so fault placement can
// be re-rolled without disturbing the rest of a scenario.
func New(cfg Config, seed uint64) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	m := &Model{
		cfg:      cfg,
		seed:     seed,
		deadSeed: mix(seed ^ saltDead),
		slowSeed: mix(seed ^ saltSlow),
		byzSeed:  mix(seed ^ saltByzantine),
		rng:      xrand.New(seed),
	}
	m.epoch.store(1)
	return m, nil
}

// Dead reports whether the node holding identifier k is crashed.
// Identifier-keyed, so the answer survives churn renames. Safe for
// concurrent use.
func (m *Model) Dead(k keyspace.Key) bool {
	return m.cfg.DeadFrac > 0 && hash01(m.deadSeed, k) < m.cfg.DeadFrac
}

// Slow reports whether the node holding identifier k is slow. Safe for
// concurrent use.
func (m *Model) Slow(k keyspace.Key) bool {
	return m.cfg.SlowFrac > 0 && hash01(m.slowSeed, k) < m.cfg.SlowFrac
}

// Byzantine reports whether the node holding identifier k is
// byzantine. Safe for concurrent use.
func (m *Model) Byzantine(k keyspace.Key) bool {
	return m.cfg.ByzantineFrac > 0 && hash01(m.byzSeed, k) < m.cfg.ByzantineFrac
}

// FaultEpoch counts fault-plane reconfigurations (partition cuts and
// heals). Snapshots record the epoch they materialised their dead mask
// at, so serving loops can tell a stale mask from a current one. Safe
// for concurrent use.
func (m *Model) FaultEpoch() uint64 { return m.epoch.load() }

// Misroute reports whether a byzantine node holding identifier k
// hijacks a query arriving at it, forcing the forward to a random
// neighbour. Draws generator state only when k is byzantine. NOT safe
// for concurrent use (shares the Send stream).
func (m *Model) Misroute(k keyspace.Key) bool {
	if !m.Byzantine(k) {
		return false
	}
	return m.rng.Bool(misroute)
}

// SetObs installs a metrics registry: every Send then counts into the
// message-plane family (sends, losses, unreachables) and feeds the
// delivered-latency histogram. Instrumentation reads values Send
// computed anyway — installing it cannot move a single RNG draw. Pass
// nil to switch it off.
func (m *Model) SetObs(reg *obs.Registry) {
	m.obsReg = reg
	m.obsHint = reg.NextHint()
}

// Send passes one message from the node holding identifier `from` to
// the node holding `to` through the fault plane and returns its fate.
// NOT safe for concurrent use.
func (m *Model) Send(from, to keyspace.Key) Delivery {
	d := m.send(from, to)
	if reg := m.obsReg; reg != nil {
		reg.NetSends.Inc(m.obsHint)
		switch d.Status {
		case SendOK:
			reg.NetLatency.Observe(d.Latency)
		case SendLost:
			reg.NetLost.Inc(m.obsHint)
		case SendUnreachable:
			reg.NetUnreachable.Inc(m.obsHint)
		}
	}
	return d
}

func (m *Model) send(from, to keyspace.Key) Delivery {
	if m.Dead(from) || m.Dead(to) {
		return Delivery{Status: SendUnreachable}
	}
	if p := m.part.load(); p != nil && p.Component(from) != p.Component(to) {
		return Delivery{Status: SendUnreachable}
	}
	if m.cfg.Loss > 0 && m.rng.Bool(m.cfg.Loss) {
		return Delivery{Status: SendLost}
	}
	if m.Byzantine(to) && m.rng.Bool(byzDrop) {
		return Delivery{Status: SendLost}
	}
	lat := latencyBase + latencyScale*m.rng.Float64()
	if m.cfg.SlowFrac > 0 && (m.Slow(from) || m.Slow(to)) {
		lat *= m.cfg.SlowFactor
	}
	return Delivery{Latency: lat, Status: SendOK}
}
