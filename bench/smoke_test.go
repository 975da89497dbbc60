package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// smokeArgs runs a workload at tiny N for a fraction of a second.
func smokeArgs(extra ...string) []string {
	return append([]string{"-short", "-seconds", "0.3", "-warmup", "0.05"}, extra...)
}

// lastLine decodes the JSON summary a run prints last.
func lastLine(t *testing.T, out string) summary {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the JSON summary: %v\n%s", err, out)
	}
	return s
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := smokeArgs("-workload", w.name, "-seed", "3", "-trace", trace,
					"-trace-out", filepath.Join(t.TempDir(), "trace.json"))
				if code := cli(args, &out, &errOut, nil); code != 0 {
					t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
				}
				s := lastLine(t, out.String())
				if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
					t.Fatalf("summary %+v\n%s", s, out.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(s.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(s.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := s.Metrics[m.name]
					if !ok || v.Unit != m.unit || math.IsNaN(v.Value) {
						t.Errorf("metric %s = %+v (present %v), want unit %s", m.name, v, ok, m.unit)
					}
					if trace == "0" && v.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", m.name)
					}
				}
			})
		}
	}
}

func TestCorruptedResultFailsTheRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := cli(smokeArgs("-workload", w.name), &out, &errOut,
				func(c *config) { c.corrupt = true })
			if code == 0 {
				t.Fatalf("a corrupted result exited 0\n%s", out.String())
			}
			if s := lastLine(t, out.String()); s.Correct || s.Failed == 0 {
				t.Errorf("summary %+v, want correct false and failed > 0", s)
			}
		})
	}
}

func TestShardedSelfTimesAccountForLatency(t *testing.T) {
	r := newRun("lookup-sharded", config{seed: 5, seconds: 3e8, warmup: 5e7, short: true, trace: true})
	if err := lookupSharded(r); err != nil {
		t.Fatal(err)
	}
	client, wire, shard, lookup := shardAccounting(foldSpans(r.tr.spans))
	if lookup == 0 {
		t.Fatal("no traced sharded lookups")
	}
	if d := math.Abs((client+wire+shard)/lookup - 1); d > 0.1 {
		t.Errorf("client %.0f + wire %.0f + shard %.0f ns vs lookup %.0f ns: off by %.1f%%",
			client, wire, shard, lookup, 100*d)
	}
}

func TestBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-repeat", "2", "-trace", "1"},
	} {
		var out, errOut bytes.Buffer
		if code := cli(args, &out, &errOut, nil); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
