package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records spans around calls into each layer, from the
// benchmark's own code only: the wrappers in wrap.go and the workload
// loops. Spans live in memory and are written out as Chrome trace-event
// JSON when the run ends.

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kRoute    spanKind = iota // SnapshotRouter.Route
	kReplay                   // stepwise GreedyInit/GreedyStep replay of a sampled route
	kPin                      // Publisher.Snapshot + router Rebind
	kRobust                   // RobustRouter.RouteRobust
	kNetSend                  // netmodel Send through the robust router's Transport
	kChurn                    // Publisher.Join / Publisher.Leave
	kHandover                 // store.ApplyChange inside the ownership watcher
	kClient                   // shard.Client.Route
	kWireSend                 // wire.Transport.Send
	kMailbox                  // frame sent → handler entered
	kQueryH                   // shard handler for a query frame
	kForwardH                 // shard handler for a forward frame
	kResultH                  // client endpoint handler for a result frame
	kPut                      // store.Put
	kGet                      // store.Get
	kScan                     // store.Scan
	kLocate                   // store.Locator.Route
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"overlaynet.route", "overlaynet.greedy_replay", "overlaynet.pin",
	"overlaynet.robust_route", "netmodel.send", "overlaynet.churn",
	"store.handover", "shard.client", "wire.send", "wire.mailbox_wait",
	"shard.query_handler", "shard.forward_handler", "shard.result_handler",
	"store.put", "store.get", "store.scan", "store.locate",
}

// Span flags.
const (
	flagPublish    = 1 << iota // churn event that advanced the epoch
	flagFirstRoute             // first robust route on a new epoch
)

// span is one timed call. Times are nanoseconds since the process
// epoch; parent is the index of the enclosing span, -1 for a root.
type span struct {
	req        uint64
	start, end int64
	parent     int32
	tid        int32
	n          int32 // kind-specific count (hops of a replay)
	kind       spanKind
	flag       uint8
}

// sampleEvery is the deterministic request sampling rate: request i of
// a worker is traced when i%sampleEvery == 0.
const sampleEvery = 16

// tracer is the in-memory span store. on gates recording: the traced
// run alternates it to measure its own overhead.
type tracer struct {
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	// Cross-goroutine bookkeeping for sharded requests: the root span of
	// each request in flight, and when its current frame was sent.
	roots map[uint64]int32
	sent  map[uint64]int64
}

func newTracer() *tracer {
	return &tracer{roots: make(map[uint64]int32), sent: make(map[uint64]int64)}
}

var epoch = time.Now()

// now returns nanoseconds since the process epoch (monotonic).
func now() int64 { return int64(time.Since(epoch)) }

// begin opens a span and returns its index.
func (t *tracer) begin(req uint64, parent int32, k spanKind, tid int32) int32 {
	s := span{req: req, parent: parent, kind: k, tid: tid, start: now()}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) { t.endAt(id, now()) }

// endAt closes span id at time e.
func (t *tracer) endAt(id int32, e int64) {
	t.mu.Lock()
	t.spans[id].end = e
	t.mu.Unlock()
}

// endWith closes span id and sets its flag and count.
func (t *tracer) endWith(id int32, flag uint8, n int32) {
	e := now()
	t.mu.Lock()
	s := &t.spans[id]
	s.end, s.flag, s.n = e, flag, n
	t.mu.Unlock()
}

// add records a span whose start and end are both known.
func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (children clipped to the
// parent, overlapping children counted once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var ivs [][2]int64
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range kids[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self[i] = s.end - s.start - unionLen(ivs)
	}
	return self
}

// unionLen is the total length covered by the intervals; it sorts ivs.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// overlap returns how much of [lo, hi) the intervals cover. ivs must be
// sorted by start and pairwise disjoint, as handover spans are: the
// publisher serialises membership events.
func overlap(lo, hi int64, ivs [][2]int64) int64 {
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i][1] > lo })
	var total int64
	for ; i < len(ivs) && ivs[i][0] < hi; i++ {
		total += min(hi, ivs[i][1]) - max(lo, ivs[i][0])
	}
	return total
}

// maxExportSpans caps the spans written to the Chrome trace (the
// per-layer metrics always use every recorded span).
const maxExportSpans = 200_000

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps), one thread per tid.
func writeChrome(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if _, err := w.WriteString("{\"traceEvents\":[\n"); err != nil {
		f.Close()
		return err
	}
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i == maxExportSpans {
			break
		}
		if i > 0 {
			w.WriteString(",")
		}
		ev := event{
			Name: spanNames[s.kind], Cat: "bench", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]any{"req": s.req, "parent": s.parent},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return fmt.Errorf("encode trace: %w", err)
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flush trace: %w", err)
	}
	return f.Close()
}
