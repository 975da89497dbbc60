package exp

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
)

// TestHostileTablesMatchRecorded re-runs E1–E20 and the two
// experiments driven by message flights — E22 (robust routing over a
// faulty plane) and E23 (the replicated store, whose lossy row flies
// every op) — at the recorded quick scale and seed, and requires rows
// and notes identical to BENCH_PR10.json. E20's wall-clock buildMs
// column is left out; E21 and E24 time real goroutines and are not
// re-run. These deterministic columns are the bit-identity contract:
// the static CSR paths, the generic NewSnapshot capture, the retry
// discipline. A refactor that moves one RNG draw or reorders one float
// addition changes a cell here.
func TestHostileTablesMatchRecorded(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Scale  string `json:"scale"`
		Seed   uint64 `json:"seed"`
		Tables []struct {
			ID      string     `json:"id"`
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
			Notes   []string   `json:"notes"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(buf, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Scale != Quick.String() || rec.Seed != 1 {
		t.Fatalf("BENCH_PR10.json recorded scale %q seed %d, want quick seed 1", rec.Scale, rec.Seed)
	}
	for _, run := range Runners() {
		if run.ID == "E21" || run.ID == "E24" {
			continue
		}
		t.Run(run.ID, func(t *testing.T) {
			got := run.Run(Quick, rec.Seed)
			for _, want := range rec.Tables {
				if want.ID != run.ID {
					continue
				}
				if !reflect.DeepEqual(got.Columns, want.Columns) {
					t.Fatalf("columns %v, recorded %v", got.Columns, want.Columns)
				}
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("%d rows, recorded %d:\n%s", len(got.Rows), len(want.Rows), got.String())
				}
				wallClock := -1
				if run.ID == "E20" {
					wallClock = slices.Index(want.Columns, "buildMs")
				}
				for i := range want.Rows {
					g, w := got.Rows[i], want.Rows[i]
					if wallClock >= 0 {
						g = slices.Delete(slices.Clone(g), wallClock, wallClock+1)
						w = slices.Delete(slices.Clone(w), wallClock, wallClock+1)
					}
					if !reflect.DeepEqual(g, w) {
						t.Errorf("row %d: %v, recorded %v", i, got.Rows[i], want.Rows[i])
					}
				}
				if !reflect.DeepEqual(got.Notes, want.Notes) {
					t.Errorf("notes %q, recorded %q", got.Notes, want.Notes)
				}
				return
			}
			t.Fatalf("%s not recorded in BENCH_PR10.json", run.ID)
		})
	}
}
