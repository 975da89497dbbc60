package overlaynet

import (
	"context"
	"math"
	"strings"
	"testing"

	"smallworld/keyspace"
)

// acceptanceTopologies is the acceptance set: every one must build and route
// through the single Overlay interface by registry name.
var acceptanceTopologies = []string{
	"smallworld-uniform", "smallworld-skewed", "kleinberg", "wattsstrogatz",
	"chord", "pastry", "pgrid", "symphony", "mercury", "can", "protocol",
}

func TestNamesCoverAcceptanceSet(t *testing.T) {
	names := Names()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, want := range acceptanceTopologies {
		if !have[want] {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
	for _, n := range names {
		info, ok := Lookup(n)
		if !ok || info.Description == "" {
			t.Errorf("topology %q has no description", n)
		}
	}
}

func TestEveryTopologyBuildsAndRoutes(t *testing.T) {
	ctx := context.Background()
	for _, name := range acceptanceTopologies {
		t.Run(name, func(t *testing.T) {
			ov, err := Build(ctx, name, Options{N: 128, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if ov.N() != 128 {
				t.Fatalf("N = %d", ov.N())
			}
			if got := len(ov.Keys()); got != 128 {
				t.Fatalf("len(Keys) = %d", got)
			}
			stats := ov.Stats()
			if stats.Nodes != 128 || stats.Links == 0 || stats.MaxDegree == 0 {
				t.Fatalf("degenerate stats: %+v", stats)
			}
			qr := NewQueryRunner(ov)
			batch, err := qr.Run(ctx, RandomPairs(ov, 11, 300))
			if err != nil {
				t.Fatal(err)
			}
			if batch.Executed != 300 {
				t.Fatalf("executed %d of 300", batch.Executed)
			}
			// Routability: the greedy-unroutable overlays still deliver
			// most queries at this size; everything else delivers all.
			if frac := float64(batch.Arrived) / 300; frac < 0.9 {
				t.Errorf("only %.1f%% of queries arrived", 100*frac)
			}
		})
	}
}

func TestBuildUnknownTopology(t *testing.T) {
	_, err := Build(context.Background(), "nope", Options{N: 16})
	if err == nil || !strings.Contains(err.Error(), "chord") {
		t.Fatalf("want unknown-topology error naming the registry, got %v", err)
	}
}

func TestBuildValidatesOptions(t *testing.T) {
	ctx := context.Background()
	for _, opts := range []Options{
		{N: 1},
		{N: 128, Degree: -1},
		{N: 128, Exponent: -2},
	} {
		if _, err := Build(ctx, "smallworld-uniform", opts); err == nil {
			t.Errorf("options %+v accepted, want error", opts)
		}
	}
	if _, err := Build(ctx, "smallworld-uniform", Options{N: 128, Sampler: "nope"}); err == nil {
		t.Error("unknown sampler accepted")
	}
}

func TestBuildHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, "smallworld-uniform", Options{N: 4096}); err == nil {
		t.Fatal("cancelled build succeeded")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(Info{Name: "chord", Description: "dup", Build: func(context.Context, Options) (Overlay, error) { return nil, nil }})
}

func TestFaultInjection(t *testing.T) {
	ctx := context.Background()
	ov, err := Build(ctx, "smallworld-uniform", Options{N: 256, Seed: 2, Topology: keyspace.Ring})
	if err != nil {
		t.Fatal(err)
	}
	fi, ok := ov.(FaultInjector)
	if !ok {
		t.Fatal("small-world overlay does not inject faults")
	}
	derived, err := fi.FailLinks(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if derived.Stats().Links >= ov.Stats().Links {
		t.Fatalf("failing half the long links kept %d of %d", derived.Stats().Links, ov.Stats().Links)
	}
	// Neighbour edges survive, so everything still arrives.
	qr := NewQueryRunner(derived)
	batch, err := qr.Run(ctx, RandomPairs(derived, 4, 200))
	if err != nil {
		t.Fatal(err)
	}
	if batch.Arrived != 200 {
		t.Fatalf("only %d/200 arrived after link failures", batch.Arrived)
	}
}

// TestFailLinksFraction pins FailLinks' range check: a fraction outside
// [0, 1] or NaN is an error, and the two ends keep every long link and
// none.
func TestFailLinksFraction(t *testing.T) {
	ov, err := Build(context.Background(), "smallworld-uniform", Options{N: 256, Seed: 2, Topology: keyspace.Ring})
	if err != nil {
		t.Fatal(err)
	}
	fi := ov.(FaultInjector)
	for _, frac := range []float64{1.5, -0.1, math.NaN(), math.Inf(1)} {
		if derived, err := fi.FailLinks(3, frac); err == nil {
			t.Errorf("FailLinks(%v) = %v, want an error", frac, derived.Kind())
		}
	}
	none, err := fi.FailLinks(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := none.Stats().Links, ov.Stats().Links; got != want {
		t.Fatalf("FailLinks(0) kept %d of %d links", got, want)
	}
	all, err := fi.FailLinks(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < all.N(); u++ {
		if got := len(all.Neighbors(u)); got != 2 {
			t.Fatalf("FailLinks(1): node %d keeps %d links, want its 2 ring neighbours", u, got)
		}
	}
}

func TestDynamicJoinLeave(t *testing.T) {
	ctx := context.Background()
	ov, err := Build(ctx, "protocol", Options{N: 64, Seed: 5, Oracle: true})
	if err != nil {
		t.Fatal(err)
	}
	dyn, ok := ov.(Dynamic)
	if !ok {
		t.Fatal("protocol overlay is not Dynamic")
	}
	for i := 0; i < 8; i++ {
		if err := dyn.Join(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if ov.N() != 72 {
		t.Fatalf("N after joins = %d, want 72", ov.N())
	}
	if err := dyn.Leave(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if ov.N() != 71 {
		t.Fatalf("N after leave = %d, want 71", ov.N())
	}
	// The refreshed snapshot must still route.
	qr := NewQueryRunner(ov)
	batch, err := qr.Run(ctx, RandomPairs(ov, 6, 100))
	if err != nil {
		t.Fatal(err)
	}
	if batch.Arrived != 100 {
		t.Fatalf("only %d/100 arrived after churn", batch.Arrived)
	}
}
