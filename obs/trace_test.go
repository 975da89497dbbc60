package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"smallworld/obs"
)

func TestSamplerCadence(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{Sample: 4, Keep: 64})
	s := tracer.NewSampler()
	var sampled []int
	for i := 1; i <= 20; i++ {
		tr := s.Start("test", 0, 0, 0)
		if tr != nil {
			sampled = append(sampled, i)
			tracer.Finish(tr, 1, "ok")
		}
	}
	// The gate is (count % Sample == 0): queries 4, 8, 12, ... — a
	// deterministic cadence, never a random draw.
	want := []int{4, 8, 12, 16, 20}
	if len(sampled) != len(want) {
		t.Fatalf("sampled %v, want %v", sampled, want)
	}
	for i := range want {
		if sampled[i] != want[i] {
			t.Fatalf("sampled %v, want %v", sampled, want)
		}
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tracer *obs.Tracer
	s := tracer.NewSampler()
	for i := 0; i < 10; i++ {
		if tr := s.Start("test", 0, 0, 0); tr != nil {
			t.Fatal("zero Sampler sampled a query")
		}
	}
	var tr *obs.Trace
	tr.Hop(0, 0, 0, 0, 0, obs.SpanHop, 0) // must not panic
	tracer.Finish(nil, 0, "ok")           // must not panic
	if _, ok := tracer.Worst(); ok {
		t.Error("nil tracer has a worst trace")
	}
	if got := tracer.Traces(); got != nil {
		t.Errorf("nil tracer Traces() = %v, want nil", got)
	}
}

func TestSpanCapDropped(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{Sample: 1, SpanCap: 4})
	s := tracer.NewSampler()
	tr := s.Start("test", 0, 0.5, 0)
	if tr == nil {
		t.Fatal("Sample=1 did not sample")
	}
	for h := 0; h < 7; h++ {
		tr.Hop(float64(h), 1, int32(h), 0, 0, obs.SpanHop, 0)
	}
	if len(tr.Spans) != 4 {
		t.Errorf("len(Spans) = %d, want 4 (SpanCap)", len(tr.Spans))
	}
	if tr.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", tr.Dropped)
	}
	tracer.Finish(tr, 7, "ok")
}

func TestWorstRetention(t *testing.T) {
	// Keep=2 so the 5-latency trace is evicted from the ring; Worst must
	// survive eviction because it lives in a dedicated buffer.
	tracer := obs.NewTracer(obs.TracerConfig{Sample: 1, Keep: 2})
	s := tracer.NewSampler()
	for _, lat := range []float64{5, 1, 2, 3} {
		tr := s.Start("test", 0, 0, 10)
		tr.Hop(10, lat, 1, 0, 0, obs.SpanHop, 0)
		tracer.Finish(tr, 10+lat, "ok")
	}
	worst, ok := tracer.Worst()
	if !ok {
		t.Fatal("no worst trace")
	}
	if worst.Latency() != 5 {
		t.Errorf("worst latency = %g, want 5", worst.Latency())
	}
	if len(worst.Spans) != 1 || worst.Spans[0].Dur != 5 {
		t.Errorf("worst spans = %+v, want the single Dur=5 hop", worst.Spans)
	}
	ring := tracer.Traces()
	if len(ring) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(ring))
	}
	// Oldest first: latencies 2 then 3 (5 and 1 evicted).
	if ring[0].Latency() != 2 || ring[1].Latency() != 3 {
		t.Errorf("ring latencies = %g, %g; want 2, 3", ring[0].Latency(), ring[1].Latency())
	}
}

func TestMissedOnDryPool(t *testing.T) {
	// Pool size is Keep+8. Holding every trace in flight (never
	// finishing) must make the next sample a counted miss, not an
	// allocation.
	tracer := obs.NewTracer(obs.TracerConfig{Sample: 1, Keep: 1})
	s := tracer.NewSampler()
	var held []*obs.Trace
	for i := 0; i < 9; i++ {
		tr := s.Start("test", 0, 0, 0)
		if tr == nil {
			t.Fatalf("pool ran dry after %d acquires, want 9", i)
		}
		held = append(held, tr)
	}
	if tr := s.Start("test", 0, 0, 0); tr != nil {
		t.Fatal("dry pool handed out a trace")
	}
	if got := tracer.Missed(); got != 1 {
		t.Errorf("Missed() = %d, want 1", got)
	}
	for _, tr := range held {
		tracer.Finish(tr, 1, "ok")
	}
}

func TestTraceAllocs(t *testing.T) {
	// The whole sampled path — acquire, spans, finish with ring eviction
	// and worst-copy — must be allocation-free at steady state.
	tracer := obs.NewTracer(obs.TracerConfig{Sample: 1, Keep: 4, SpanCap: 16})
	s := tracer.NewSampler()
	if n := testing.AllocsPerRun(200, func() {
		tr := s.Start("test", 1, 0.5, 0)
		for h := 0; h < 8; h++ {
			tr.Hop(float64(h), 1, int32(h), 0, 0, obs.SpanHop, 0.25)
		}
		tracer.Finish(tr, 8, "ok")
	}); n != 0 {
		t.Errorf("sampled trace path allocates %v per query, want 0", n)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{Sample: 1})
	s := tracer.NewSampler()
	tr := s.Start("route", 3, 0.25, 1.0)
	tr.Hop(1.0, 0.5, 7, 0, 0, obs.SpanHop, 0.1)
	tr.Hop(1.5, 0.5, 9, 1, 2, obs.SpanTimeout, 0.05)
	tracer.Finish(tr, 2.0, "delivered")

	var buf bytes.Buffer
	if err := tracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 { // query event + 2 spans
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	top := doc.TraceEvents[0]
	if top.Ph != "X" || top.Name != "route delivered" {
		t.Errorf("top event = %+v, want ph=X name=%q", top, "route delivered")
	}
	// Trace times are seconds; Chrome's ts/dur are microseconds.
	if top.Ts != 1e6 || top.Dur != 1e6 {
		t.Errorf("top ts/dur = %g/%g, want 1e6/1e6", top.Ts, top.Dur)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Pid != 1 || ev.Tid != doc.TraceEvents[0].Tid {
			t.Errorf("event %+v breaks the one-lane-per-trace layout", ev)
		}
	}
}
