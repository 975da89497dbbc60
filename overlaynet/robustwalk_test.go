package overlaynet

import (
	"fmt"
	"testing"

	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/obs"
	"smallworld/xrand"
)

// scriptPlane is a RobustPlane over a fixed graph whose sends take
// their fates from a script, in order.
type scriptPlane struct {
	keys  []keyspace.Key
	rows  [][]int32
	byz   int // slot that hijacks queries, -1 for none
	fates []netmodel.SendStatus
	sent  []int32 // slots sent to, in order
}

const scriptLatency = 0.01

func (p *scriptPlane) N() int                                      { return len(p.keys) }
func (p *scriptPlane) Key(u int) keyspace.Key                      { return p.keys[u] }
func (p *scriptPlane) Neighbors(u int) []int32                     { return p.rows[u] }
func (p *scriptPlane) Locate(slot int, _ keyspace.Key) (int, bool) { return slot, true }
func (p *scriptPlane) Misroute(k keyspace.Key) bool                { return p.byz >= 0 && k == p.keys[p.byz] }
func (p *scriptPlane) Offer(w *RobustWalk, u int) {
	for j, v := range p.rows[u] {
		w.Consider(v, int32(j), p.keys[v])
	}
}

func (p *scriptPlane) Send(_ int, _ keyspace.Key, c *RobustCandidate) netmodel.Delivery {
	p.sent = append(p.sent, c.Slot)
	st := p.fates[0]
	p.fates = p.fates[1:]
	if st == netmodel.SendOK {
		return netmodel.Delivery{Latency: scriptLatency}
	}
	return netmodel.Delivery{Status: st}
}

func (p *scriptPlane) Nearest(target keyspace.Key, _ bool) float64 {
	best := -1.0
	for _, k := range p.keys {
		if d := keyspace.Line.Distance(k, target); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// TestRobustWalkScripted drives the retry machine through scripted
// send fates on a four-node line routing from 0.0 toward 1.0: node 0
// sees nodes 1 (0.7), 2 (0.8) and 3 (0.9), so its greedy order is 3, 2,
// 1; nodes 1 and 2 see only 3, the nearest node. Each step's waits are
// checked exactly — a delivered hop costs its link latency, a failure
// the hop timeout, and a resend additionally the backoff, which
// doubles per resend of one candidate, restarts on fallback, and is
// jittered by a draw from the walk's stream.
func TestRobustWalkScripted(t *testing.T) {
	const (
		ok  = netmodel.SendOK
		los = netmodel.SendLost
		unr = netmodel.SendUnreachable
	)
	// Expected steps: 'L' a delivered hop, 'T' a failure followed by a
	// send to the next-best candidate, '0'..'9' a failure followed by
	// resend k of the same candidate, '.' the step that stops the walk
	// at a node without candidates, 'X' a failure that ends the walk.
	chain := [][]int32{{1, 2, 3}, {3}, {3}, {}}
	cases := []struct {
		name    string
		retries int
		rows    [][]int32
		byz     int
		fates   []netmodel.SendStatus
		steps   string
		sent    []int32
		want    Outcome
		hops    int
		resends int
	}{
		{"clean", 0, chain, -1, []netmodel.SendStatus{ok}, "L.", []int32{3}, Delivered, 1, 0},
		{"retry then deliver", 0, chain, -1, []netmodel.SendStatus{los, los, ok}, "01L.",
			[]int32{3, 3, 3}, DeliveredDegraded, 1, 2},
		{"explicit budget", 2, chain, -1, []netmodel.SendStatus{unr, los, ok}, "01L.",
			[]int32{3, 3, 3}, DeliveredDegraded, 1, 2},
		{"budget spent, fallback", 2, chain, -1, []netmodel.SendStatus{los, los, los, unr, ok, ok}, "01T0LL.",
			[]int32{3, 3, 3, 2, 2, 3}, DeliveredDegraded, 2, 3},
		{"no retries, fallback", -1, chain, -1, []netmodel.SendStatus{los, ok, ok}, "TLL.",
			[]int32{3, 2, 3}, DeliveredDegraded, 2, 0},
		{"no retries, all lost", -1, chain, -1, []netmodel.SendStatus{los, los, los}, "TTX",
			[]int32{3, 2, 1}, TimedOut, 0, 0},
		{"no retries, one lost", -1, chain, -1, []netmodel.SendStatus{unr, los, unr}, "TTX",
			[]int32{3, 2, 1}, TimedOut, 0, 0},
		{"no retries, all unreachable", -1, chain, -1, []netmodel.SendStatus{unr, unr, unr}, "TTX",
			[]int32{3, 2, 1}, Unroutable, 0, 0},
		{"retries, all unreachable", 0, chain, -1,
			[]netmodel.SendStatus{unr, unr, unr, unr, unr, unr, unr, unr, unr}, "01T01T01X",
			[]int32{3, 3, 3, 2, 2, 2, 1, 1, 1}, Unroutable, 0, 6},
		{"detour lost", 0, [][]int32{{1}, {3}, {}, {}}, 1, []netmodel.SendStatus{ok, los}, "LX",
			[]int32{1, 3}, TimedOut, 1, 0},
		{"detour unreachable", 0, [][]int32{{1}, {3}, {}, {}}, 1, []netmodel.SendStatus{ok, unr}, "LX",
			[]int32{1, 3}, TimedOut, 1, 0},
		{"detour delivered", 0, [][]int32{{1}, {3}, {}, {}}, 1, []netmodel.SendStatus{ok, ok}, "LL.",
			[]int32{1, 3}, DeliveredDegraded, 2, 0},
	}
	keys := []keyspace.Key{0, 0.7, 0.8, 0.9}
	const target, seed = keyspace.Key(1), 77
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &scriptPlane{keys: keys, rows: tc.rows, byz: tc.byz, fates: tc.fates}
			rng, ref := xrand.New(seed), xrand.New(seed)
			tr := obs.NewTracer(obs.TracerConfig{Sample: 1})
			sampler := tr.NewSampler()
			trc := sampler.Start("scripted", 0, float64(target), 0)
			var w RobustWalk
			w.Begin(keyspace.Line, target, RobustPolicy{Retries: tc.retries}, 0, keys[0])
			latency := 0.0
			for i := 0; ; i++ {
				if i == len(tc.steps) {
					t.Fatalf("walk runs past its %d scripted steps", len(tc.steps))
				}
				wait, backoff, done := w.Step(p, rng, latency, trc)
				latency += wait
				latency += backoff
				type step struct {
					wait, backoff float64
					done          bool
				}
				var want step
				switch c := tc.steps[i]; c {
				case 'L':
					want = step{scriptLatency, 0, false}
				case '.':
					want = step{0, 0, true}
				case 'T':
					want = step{hopTimeout, 0, false}
				case 'X':
					want = step{hopTimeout, 0, true}
				default:
					b := backoffBase
					for k := c - '0'; k > 0; k-- {
						b *= 2
					}
					want = step{hopTimeout, b * (1 + backoffJitter*(2*ref.Float64()-1)), false}
				}
				if got := (step{wait, backoff, done}); got != want {
					t.Fatalf("step %d (%q): got %+v, want %+v", i, tc.steps[i], got, want)
				}
				if done {
					if i != len(tc.steps)-1 {
						t.Fatalf("walk ended after %d of %d scripted steps", i+1, len(tc.steps))
					}
					break
				}
			}
			if fmt.Sprint(p.sent) != fmt.Sprint(tc.sent) {
				t.Errorf("sent to %v, want %v", p.sent, tc.sent)
			}
			res := w.Result(latency)
			if res.Outcome != tc.want || res.Hops != tc.hops || res.Retries != tc.resends {
				t.Errorf("result %+v, want outcome %v hops %d retries %d", res, tc.want, tc.hops, tc.resends)
			}
			for _, sp := range trc.Spans {
				if sp.Kind == obs.SpanHijack && sp.Rank != -1 {
					t.Errorf("hijack span rank %d, want -1 (not a candidate)", sp.Rank)
				}
			}
		})
	}
}

// Candidates at exactly equal distance keep their out-row order: the
// greedy order is a stable sort, so a replay tries tied candidates in
// the order it always did.
func TestRobustWalkTieOrder(t *testing.T) {
	keys := []keyspace.Key{0, 0.75, 0.25}
	p := &scriptPlane{
		keys: keys, rows: [][]int32{{1, 2}, {}, {}}, byz: -1,
		fates: []netmodel.SendStatus{netmodel.SendUnreachable, netmodel.SendUnreachable},
	}
	var w RobustWalk
	w.Begin(keyspace.Line, 0.5, RobustPolicy{Retries: -1}, 0, keys[0])
	for done := false; !done; {
		_, _, done = w.Step(p, xrand.New(1), 0, nil)
	}
	if fmt.Sprint(p.sent) != "[1 2]" {
		t.Errorf("tied candidates tried in order %v, want the row order [1 2]", p.sent)
	}
}
