package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},  // 0: root
		{start: 10, end: 30, parent: 0},   // 1: child of root
		{start: 20, end: 50, parent: 0},   // 2: overlaps 1: [10,50) covered once
		{start: 25, end: 45, parent: 2},   // 3: nested in 2
		{start: 90, end: 120, parent: 0},  // 4: runs past the root: clipped to [90,100)
		{start: 60, end: 70, parent: -1},  // 5: another root, no children
		{start: 30, end: 40, parent: 3},   // 6: nested two levels down
		{start: 200, end: 210, parent: 5}, // 7: entirely outside its parent
	}
	self := selfTimes(spans)
	want := []int64{
		100 - 40 - 10, // root minus [10,50) and [90,100)
		20,
		30 - 20,
		20 - 10,
		30,
		10, // child 7 lies outside and covers nothing
		10,
		10,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i, self[i], want[i])
		}
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 10}, {0, 3}}, 8},
		{[][2]int64{{0, 10}, {2, 4}, {9, 12}, {20, 21}}, 13},
		{[][2]int64{{0, 5}, {5, 10}}, 10},
	} {
		if got := unionLen(tc.ivs); got != tc.want {
			t.Errorf("unionLen(%v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}

func TestOverlapWithHandovers(t *testing.T) {
	handovers := [][2]int64{{10, 20}, {30, 35}, {50, 100}}
	for _, tc := range []struct {
		lo, hi, want int64
	}{
		{0, 5, 0},     // before every handover
		{0, 15, 5},    // waits behind the first
		{12, 18, 6},   // entirely inside one
		{15, 60, 20},  // tail of one, all of another, head of a third
		{20, 30, 0},   // between two, touching both ends
		{90, 200, 10}, // head of the op inside the last
		{200, 300, 0}, // after every handover
	} {
		if got := overlap(tc.lo, tc.hi, handovers); got != tc.want {
			t.Errorf("overlap([%d,%d)) = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
	if got := overlap(0, 100, nil); got != 0 {
		t.Errorf("overlap with no handovers = %d", got)
	}
}

func TestStoreHandoverLockWait(t *testing.T) {
	spans := []span{
		{kind: kChurn, start: 0, end: 100, parent: -1},
		{kind: kHandover, start: 10, end: 60, parent: 0},
		{kind: kHandover, start: 60, end: 70, parent: 0},
		{kind: kGet, start: 50, end: 80, parent: -1}, // 20 of 30 behind the handovers
		{kind: kPut, start: 80, end: 90, parent: -1}, // no wait
	}
	perEvent, frac, wait := storeHandover(spans)
	if perEvent.n != 1 || perEvent.sum != 60 {
		t.Errorf("per-event handover = %d events totalling %v, want 1 event of 60", perEvent.n, perEvent.sum)
	}
	if want := 20.0 / 40; frac != want {
		t.Errorf("lock wait frac = %v, want %v", frac, want)
	}
	if wait.n != 2 || wait.sum != 20 {
		t.Errorf("lock waits = %d ops totalling %v, want 2 ops, 20", wait.n, wait.sum)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	spans := []span{
		{req: 7, kind: kClient, start: 1000, end: 5000, parent: -1, tid: tidClient},
		{req: 7, kind: kWireSend, start: 1200, end: 1500, parent: 0, tid: tidShard},
	}
	if err := writeChrome(path, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "wire.send" ||
		doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Ts != 1 || doc.TraceEvents[0].Dur != 4 {
		t.Errorf("unexpected trace events %+v", doc.TraceEvents)
	}
}
