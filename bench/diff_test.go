package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func summarise(values ...float64) *metricSummary {
	s := &metricSummary{Values: values}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	return s
}

func TestVerdicts(t *testing.T) {
	lower := metric{name: "op_p50_us", bound: 0.1}
	higher := metric{name: "ops_per_s", higher: true, bound: 0.1}
	steady := summarise(100, 101, 100, 99, 100)
	for _, tc := range []struct {
		name string
		m    metric
		a, b *metricSummary
		want string
	}{
		{"same", lower, steady, summarise(101, 100, 102, 100, 99), unchanged},
		{"within bound", lower, steady, summarise(108, 107, 108, 109, 108), unchanged},
		{"slower", lower, steady, summarise(120, 121, 119, 120, 122), regressed},
		{"faster", lower, steady, summarise(80, 81, 79, 80, 82), improved},
		{"throughput up", higher, steady, summarise(120, 121, 119, 120, 122), improved},
		{"throughput down", higher, steady, summarise(80, 81, 79, 80, 82), regressed},
		{"noisy", lower, steady, summarise(60, 150, 100, 90, 130), unresolved},
		{"noisy but every run better", lower, summarise(200, 260, 300, 250, 220),
			summarise(100, 150, 120, 110, 130), improved},
		{"zero baseline", lower, summarise(0, 0, 0), summarise(0, 0, 0), unchanged},
		{"zero baseline moved", lower, summarise(0, 0, 0), summarise(1, 1, 1), unresolved},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestDiffSetsPrintsOneRowPerWorkloadMetric(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		set := setFile{Seed: 1, Repeat: 3, Workloads: map[string]map[string]*metricSummary{}}
		for _, w := range []string{"lookup-large", "store-churn"} {
			ms := map[string]*metricSummary{}
			for _, m := range endToEnd {
				ms[m.name] = summarise(10*scale, 10*scale, 10*scale)
				ms[m.name].Unit = m.unit
			}
			set.Workloads[w] = ms
		}
		b, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := write("a.json", 1), write("b.json", 2)
	var out, errOut bytes.Buffer
	if code := cli([]string{"-diff", a, b}, &out, &errOut, nil); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if got, want := len(lines), 1+2*len(endToEnd); got != want {
		t.Fatalf("%d lines, want %d:\n%s", got, want, out.String())
	}
	// Doubling makes every lower-is-better metric regress and ops_per_s improve.
	for _, l := range lines[1:] {
		want := regressed
		if strings.Contains(l, "ops_per_s") {
			want = improved
		}
		if !strings.HasSuffix(l, want) {
			t.Errorf("row %q: want verdict %s", l, want)
		}
	}
	if code := cli([]string{"-diff", a}, &out, &errOut, nil); code != 2 {
		t.Errorf("-diff with one file: exit %d, want 2", code)
	}
}
