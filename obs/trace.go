package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// SpanKind classifies one recorded step of a traced query.
type SpanKind uint8

const (
	// SpanHop: a message (or instantaneous greedy step) advanced the
	// query to Node.
	SpanHop SpanKind = iota
	// SpanTimeout: a send attempt toward Node timed out (lost message,
	// dead or unreachable peer) and the initiator paid the hop timeout.
	SpanTimeout
	// SpanHijack: a byzantine relay forwarded the query to Node of its
	// own choosing.
	SpanHijack
	// SpanReplica: a store operation touched the replica holding rank
	// Rank (write, consult or repair).
	SpanReplica
)

// String returns the span kind name.
func (k SpanKind) String() string {
	switch k {
	case SpanHop:
		return "hop"
	case SpanTimeout:
		return "timeout"
	case SpanHijack:
		return "hijack"
	case SpanReplica:
		return "replica"
	default:
		return fmt.Sprintf("SpanKind(%d)", int(k))
	}
}

// MarshalJSON renders the kind as its name.
func (k SpanKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON parses the name written by MarshalJSON, so exported
// trace documents round-trip.
func (k *SpanKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "hop":
		*k = SpanHop
	case "timeout":
		*k = SpanTimeout
	case "hijack":
		*k = SpanHijack
	case "replica":
		*k = SpanReplica
	default:
		return fmt.Errorf("obs: unknown span kind %q", s)
	}
	return nil
}

// Span is one recorded step: which node the step involved, how good a
// candidate it was, what it cost. Spans are appended by nil-safe Trace
// methods, so un-sampled queries never construct one.
type Span struct {
	// T is the span's start in the trace's time base (virtual time for
	// sim flights, hop index for instantaneous routing).
	T float64 `json:"t"`
	// Dur is the span's duration in the same base (link latency for a
	// delivered hop, the timeout paid for a failed one).
	Dur float64 `json:"dur"`
	// Node is the slot the step involved.
	Node int32 `json:"node"`
	// Rank is the candidate's position in the sender's sorted candidate
	// list (0 = best improving neighbour), or -1 when Node is not a
	// candidate (a hijacking relay's detour target).
	Rank int16 `json:"rank"`
	// Retries counts resends burned on this candidate before this step.
	Retries uint16 `json:"retries"`
	// Kind classifies the step.
	Kind SpanKind `json:"kind"`
	// Dist is the key distance from Node to the query target.
	Dist float64 `json:"dist"`
}

// Trace is one sampled query: identity, outcome, and the hop-level span
// sequence. Traces are pooled by their Tracer; the instrumented path
// must not retain one past Finish.
type Trace struct {
	// ID numbers sampled traces monotonically per Tracer.
	ID uint64 `json:"id"`
	// Op labels what was traced ("route", "flight", "put", ...).
	Op string `json:"op"`
	// Src is the originating slot.
	Src int `json:"src"`
	// Target is the query target key (as float64 so this package stays
	// dependency-free).
	Target float64 `json:"target"`
	// Start and End bracket the query in its time base.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Outcome is the terminal classification ("delivered", ...).
	Outcome string `json:"outcome"`
	// Spans is the recorded step sequence, capped at the tracer's span
	// capacity.
	Spans []Span `json:"spans"`
	// Dropped counts spans discarded once the buffer filled.
	Dropped int `json:"dropped,omitempty"`
}

// Hop appends one span. Nil-safe: tracing a not-sampled query is one
// pointer check. When the preallocated buffer is full the span is
// counted in Dropped instead of growing the buffer — tracing never
// allocates on the hot path.
func (tr *Trace) Hop(t, dur float64, node int32, rank, retries int, kind SpanKind, dist float64) {
	if tr == nil {
		return
	}
	tr.hop(t, dur, node, rank, retries, kind, dist)
}

func (tr *Trace) hop(t, dur float64, node int32, rank, retries int, kind SpanKind, dist float64) {
	if len(tr.Spans) == cap(tr.Spans) {
		tr.Dropped++
		return
	}
	tr.Spans = append(tr.Spans, Span{
		T: t, Dur: dur, Node: node,
		Rank: int16(rank), Retries: uint16(retries),
		Kind: kind, Dist: dist,
	})
}

// Latency returns the trace's end-to-end duration.
func (tr *Trace) Latency() float64 { return tr.End - tr.Start }

// TracerConfig parameterises a Tracer. Zero fields mean their
// documented defaults.
type TracerConfig struct {
	// Sample keeps 1 in every Sample queries. Default 128. Sampling is
	// a caller-local modular counter — deterministic, never a random
	// draw — so installing a tracer cannot perturb any seeded stream.
	Sample int
	// Keep bounds the ring of finished traces retained for export.
	// Default 16. The worst-latency trace is retained separately.
	Keep int
	// SpanCap is each trace's preallocated span buffer. Default 64;
	// spans beyond it are counted in Trace.Dropped.
	SpanCap int
}

func (c TracerConfig) withDefaults() TracerConfig {
	if c.Sample <= 0 {
		c.Sample = 128
	}
	if c.Keep <= 0 {
		c.Keep = 16
	}
	if c.SpanCap <= 0 {
		c.SpanCap = 64
	}
	return c
}

// Tracer hands out preallocated Traces for 1-in-N queries and retains
// finished ones: a bounded FIFO ring plus the worst-latency trace.
// Acquire/Finish take one short mutex hold per *sampled* query; the
// not-sampled path (the overwhelming majority) touches only the
// caller-local Sampler. Safe for concurrent use.
type Tracer struct {
	cfg TracerConfig

	mu     sync.Mutex
	nextID uint64
	free   []*Trace
	done   []*Trace // FIFO, oldest first, len <= cfg.Keep
	worst  *Trace   // dedicated buffer, deep-copied into
	hasW   bool
	missed uint64 // sampled queries dropped because the pool ran dry
}

// NewTracer returns a tracer with every trace buffer preallocated:
// steady-state tracing performs zero heap allocations.
func NewTracer(cfg TracerConfig) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{cfg: cfg}
	// Keep ring + a margin of in-flight traces.
	pool := cfg.Keep + 8
	t.free = make([]*Trace, 0, pool)
	for i := 0; i < pool; i++ {
		t.free = append(t.free, &Trace{Spans: make([]Span, 0, cfg.SpanCap)})
	}
	t.done = make([]*Trace, 0, cfg.Keep)
	t.worst = &Trace{Spans: make([]Span, 0, cfg.SpanCap)}
	return t
}

// NewSampler returns a caller-local sampling gate for this tracer.
// Nil-safe: a nil tracer yields a Sampler that never samples. A Sampler
// is not safe for concurrent use — hold one per goroutine, like a
// router.
func (t *Tracer) NewSampler() Sampler {
	if t == nil {
		return Sampler{}
	}
	return Sampler{t: t, every: uint64(t.cfg.Sample)}
}

// Sampler decides, one query at a time, whether to trace. The decision
// is (local count % N == 0) — deterministic and RNG-free.
type Sampler struct {
	t     *Tracer
	every uint64
	n     uint64
}

// Start returns a fresh Trace when this query is sampled, nil
// otherwise (including always for the zero Sampler).
func (s *Sampler) Start(op string, src int, target, now float64) *Trace {
	if s.t == nil {
		return nil
	}
	s.n++
	if s.n%s.every != 0 {
		return nil
	}
	return s.t.acquire(op, src, target, now)
}

// acquire pops a pooled trace; a dry pool drops the sample rather than
// allocating.
func (t *Tracer) acquire(op string, src int, target, now float64) *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.free)
	if n == 0 {
		t.missed++
		return nil
	}
	tr := t.free[n-1]
	t.free = t.free[:n-1]
	t.nextID++
	*tr = Trace{ID: t.nextID, Op: op, Src: src, Target: target, Start: now, Spans: tr.Spans[:0]}
	return tr
}

// Finish records the trace's terminal state and retains it. Nil-safe in
// both receiver and argument; the caller must drop its reference.
func (t *Tracer) Finish(tr *Trace, end float64, outcome string) {
	if t == nil || tr == nil {
		return
	}
	tr.End = end
	tr.Outcome = outcome
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.hasW || tr.Latency() > t.worst.Latency() {
		copyTrace(t.worst, tr)
		t.hasW = true
	}
	if len(t.done) == t.cfg.Keep {
		evicted := t.done[0]
		copy(t.done, t.done[1:])
		t.done = t.done[:len(t.done)-1]
		t.free = append(t.free, evicted)
	}
	t.done = append(t.done, tr)
}

// copyTrace deep-copies src into dst, reusing dst's span buffer.
func copyTrace(dst, src *Trace) {
	spans := dst.Spans[:0]
	*dst = *src
	dst.Spans = append(spans, src.Spans...)
}

// Missed returns how many sampled queries were dropped because every
// pooled trace was in flight.
func (t *Tracer) Missed() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.missed
}

// Traces returns deep copies of the retained ring, oldest first. The
// copies are private to the caller — safe to hold across further
// tracing.
func (t *Tracer) Traces() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, len(t.done))
	for i, tr := range t.done {
		out[i] = *tr
		out[i].Spans = append([]Span(nil), tr.Spans...)
	}
	return out
}

// Worst returns a deep copy of the worst-latency finished trace, and
// whether any trace has finished.
func (t *Tracer) Worst() (Trace, bool) {
	if t == nil {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.hasW {
		return Trace{}, false
	}
	out := *t.worst
	out.Spans = append([]Span(nil), t.worst.Spans...)
	return out, true
}

// chromeEvent is one Chrome trace-event ("X" = complete event with a
// duration). ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the traces in Chrome trace-event format
// (load in chrome://tracing or https://ui.perfetto.dev): one lane per
// trace (tid = trace ID), one complete event per query bracketing one
// event per span. scale converts trace time units to microseconds;
// pass 0 for the default 1e6 (times in seconds).
func WriteChromeTrace(w io.Writer, scale float64, traces ...Trace) error {
	if scale <= 0 {
		scale = 1e6
	}
	events := make([]chromeEvent, 0, len(traces)*8)
	for _, tr := range traces {
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("%s %s", tr.Op, tr.Outcome),
			Ph:   "X",
			Ts:   tr.Start * scale,
			Dur:  tr.Latency() * scale,
			Pid:  1, Tid: tr.ID,
			Args: map[string]any{
				"src": tr.Src, "target": tr.Target,
				"spans": len(tr.Spans), "dropped": tr.Dropped,
			},
		})
		for _, sp := range tr.Spans {
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("%s -> %d", sp.Kind, sp.Node),
				Ph:   "X",
				Ts:   sp.T * scale,
				Dur:  sp.Dur * scale,
				Pid:  1, Tid: tr.ID,
				Args: map[string]any{
					"rank": sp.Rank, "retries": sp.Retries, "dist": sp.Dist,
				},
			})
		}
	}
	buf, err := json.MarshalIndent(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events}, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// WriteChrome writes every retained trace (ring order) in Chrome
// trace-event format, reading trace times as seconds (virtual or wall).
func (t *Tracer) WriteChrome(w io.Writer) error {
	return WriteChromeTrace(w, 1e6, t.Traces()...)
}
