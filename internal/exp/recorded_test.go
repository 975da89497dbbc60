package exp

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestHostileTablesMatchRecorded re-runs the two experiments driven by
// message flights — E22 (robust routing over a faulty plane) and E23
// (the replicated store, whose lossy row flies every op) — at the
// recorded quick scale and seed, and requires rows and notes identical
// to BENCH_PR10.json. Their deterministic columns are the bit-identity
// contract for the retry discipline: a refactor that moves one RNG
// draw or reorders one float addition changes a cell here.
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
	for _, run := range []struct {
		id string
		fn func(Scale, uint64) Table
	}{
		{"E22", E22HostileNetwork},
		{"E23", E23ReplicatedStore},
	} {
		t.Run(run.id, func(t *testing.T) {
			got := run.fn(Quick, rec.Seed)
			for _, want := range rec.Tables {
				if want.ID != run.id {
					continue
				}
				if !reflect.DeepEqual(got.Columns, want.Columns) {
					t.Fatalf("columns %v, recorded %v", got.Columns, want.Columns)
				}
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("%d rows, recorded %d:\n%s", len(got.Rows), len(want.Rows), got.String())
				}
				for i := range want.Rows {
					if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
						t.Errorf("row %d: %v, recorded %v", i, got.Rows[i], want.Rows[i])
					}
				}
				if !reflect.DeepEqual(got.Notes, want.Notes) {
					t.Errorf("notes %q, recorded %q", got.Notes, want.Notes)
				}
				return
			}
			t.Fatalf("%s not recorded in BENCH_PR10.json", run.id)
		})
	}
}
