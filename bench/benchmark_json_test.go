package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the workload and metric tables the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range want {
			e := got[i]
			better := "lower"
			if m.higher {
				better = "higher"
			}
			if e.Name != m.name || e.Unit != m.unit || e.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program %+v", kind, i, e, m)
			}
			if !name.MatchString(e.Name) || !unit.MatchString(e.Unit) {
				t.Errorf("%s: malformed name or unit in %+v", kind, e)
			}
			switch {
			case bounded && (e.Bound == nil || *e.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s: bound of %s is %v, program %v (must be in (0, 0.25])", kind, m.name, e.Bound, m.bound)
			case !bounded && e.Bound != nil:
				t.Errorf("%s: %s has a bound", kind, m.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
}
