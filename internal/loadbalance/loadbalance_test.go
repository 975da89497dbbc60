package loadbalance

import (
	"math"
	"slices"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

func TestLoadsAssignAll(t *testing.T) {
	nodes := keyspace.Points{0.1, 0.5, 0.9}
	data := []keyspace.Key{0.05, 0.12, 0.49, 0.51, 0.88, 0.95}
	loads := Loads(keyspace.Ring, nodes, data)
	total := 0
	for _, l := range loads {
		total += l
	}
	if total != len(data) {
		t.Fatalf("assigned %d of %d keys", total, len(data))
	}
	want := []int{2, 2, 2}
	for i := range want {
		if loads[i] != want[i] {
			t.Errorf("loads[%d] = %d, want %d", i, loads[i], want[i])
		}
	}
}

func TestAnalyzeBalanced(t *testing.T) {
	r := Analyze([]int{10, 10, 10, 10})
	if r.MaxMeanRatio != 1 || r.CV != 0 || r.Gini != 0 || r.Empty != 0 {
		t.Errorf("balanced report wrong: %+v", r)
	}
	if r.Mean != 10 {
		t.Errorf("mean = %v", r.Mean)
	}
}

func TestAnalyzeConcentrated(t *testing.T) {
	r := Analyze([]int{40, 0, 0, 0})
	if r.MaxMeanRatio != 4 {
		t.Errorf("MaxMeanRatio = %v, want 4", r.MaxMeanRatio)
	}
	if r.Empty != 3 {
		t.Errorf("Empty = %d, want 3", r.Empty)
	}
	if r.Gini < 0.7 {
		t.Errorf("Gini = %v, want high", r.Gini)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	r := Analyze(nil)
	if r.MaxMeanRatio != 0 || r.Mean != 0 {
		t.Errorf("empty report wrong: %+v", r)
	}
}

// The Section 4 premise: under skewed keys, adapted placement balances
// storage, uniform placement does not.
func TestAdaptedPlacementBalances(t *testing.T) {
	const nodes, keys = 200, 50000
	f := dist.NewPower(0.8)
	r := xrand.New(1)
	data := dist.SampleN(f, r, keys)

	uniform := Loads(keyspace.Ring, PlaceUniform(nodes, xrand.New(2)), data)
	adapted := Loads(keyspace.Ring, PlaceAdapted(nodes, f, xrand.New(3)), data)
	ideal := Loads(keyspace.Ring, PlaceEqualMass(nodes, f), data)

	ru, ra, ri := Analyze(uniform), Analyze(adapted), Analyze(ideal)
	if ra.Gini >= ru.Gini {
		t.Errorf("adapted placement Gini %v should beat uniform %v", ra.Gini, ru.Gini)
	}
	if ri.Gini >= ra.Gini {
		t.Errorf("equal-mass placement Gini %v should beat sampled-adapted %v", ri.Gini, ra.Gini)
	}
	if ru.MaxMeanRatio < 3 {
		t.Errorf("uniform placement under skew should be badly unbalanced, ratio %v", ru.MaxMeanRatio)
	}
	if ri.MaxMeanRatio > 1.5 {
		t.Errorf("equal-mass placement ratio %v should be near 1", ri.MaxMeanRatio)
	}
}

func TestPlaceEqualMassQuantiles(t *testing.T) {
	f := dist.NewTruncExp(5)
	pts := PlaceEqualMass(4, f)
	for i, p := range pts {
		want := f.Quantile((float64(i) + 0.5) / 4)
		if math.Abs(float64(p)-want) > 1e-12 {
			t.Errorf("point %d = %v, want %v", i, p, want)
		}
	}
	if !slices.IsSorted(pts) {
		t.Error("points not sorted")
	}
}

func TestPlaceUniformSorted(t *testing.T) {
	pts := PlaceUniform(100, xrand.New(4))
	if !slices.IsSorted(pts) || len(pts) != 100 {
		t.Error("PlaceUniform output invalid")
	}
}
