package overlaynet

import (
	"context"
	"math"
	"testing"

	"smallworld/keyspace"
)

// withWorkers bounds a QueryRunner's parallelism in place of GOMAXPROCS.
func withWorkers(n int) Option {
	return func(qr *QueryRunner) { qr.workers = n }
}

func buildTestOverlay(t testing.TB, n int) Overlay {
	t.Helper()
	ov, err := Build(context.Background(), "smallworld-uniform",
		Options{N: n, Seed: 1, Topology: keyspace.Ring})
	if err != nil {
		t.Fatal(err)
	}
	return ov
}

// TestRunnerMatchesSerialRouting: the batched parallel path must produce
// exactly the hops a serial loop over one router produces.
func TestRunnerMatchesSerialRouting(t *testing.T) {
	ov := buildTestOverlay(t, 512)
	qs := RandomPairs(ov, 2, 1000)

	router := ov.NewRouter()
	want := make([]float64, len(qs))
	for i, q := range qs {
		res := router.Route(q.Src, q.Target)
		if res.Arrived {
			want[i] = float64(res.Hops)
		} else {
			want[i] = math.NaN()
		}
	}

	for _, workers := range []int{1, 2, 7} {
		qr := NewQueryRunner(ov, withWorkers(workers))
		batch, err := qr.Run(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Executed != len(qs) {
			t.Fatalf("workers=%d executed %d of %d", workers, batch.Executed, len(qs))
		}
		for i := range want {
			same := batch.Hops[i] == want[i] ||
				(math.IsNaN(batch.Hops[i]) && math.IsNaN(want[i]))
			if !same {
				t.Fatalf("workers=%d query %d: got %v, want %v", workers, i, batch.Hops[i], want[i])
			}
		}
	}
}

func TestRunnerFailHopsSentinel(t *testing.T) {
	ov := buildTestOverlay(t, 256)
	qr := NewQueryRunner(ov, FailHops(256))
	batch, err := qr.Run(context.Background(), RandomPairs(ov, 3, 400))
	if err != nil {
		t.Fatal(err)
	}
	// Intact neighbour edges: everything arrives, no sentinel recorded.
	if batch.Arrived != 400 {
		t.Fatalf("arrived %d of 400", batch.Arrived)
	}
	for i, h := range batch.Hops {
		if h >= 256 || math.IsNaN(h) {
			t.Fatalf("query %d recorded sentinel %v despite arriving", i, h)
		}
	}
}

func TestRunnerReusesBuffersAcrossRuns(t *testing.T) {
	ov := buildTestOverlay(t, 256)
	qr := NewQueryRunner(ov)
	qs := RandomPairs(ov, 4, 500)
	first, err := qr.Run(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	firstHops := append([]float64(nil), first.Hops...)
	second, err := qr.Run(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range firstHops {
		if second.Hops[i] != firstHops[i] {
			t.Fatalf("rerun diverged at query %d", i)
		}
	}
	// Smaller follow-up batches must not read stale tail state.
	short, err := qr.Run(context.Background(), qs[:10])
	if err != nil {
		t.Fatal(err)
	}
	if len(short.Hops) != 10 || short.Executed != 10 {
		t.Fatalf("short batch: %d hops, %d executed", len(short.Hops), short.Executed)
	}
}

func TestRunnerContextCancellation(t *testing.T) {
	ov := buildTestOverlay(t, 512)
	qr := NewQueryRunner(ov, withWorkers(1))
	qs := RandomPairs(ov, 5, 10000)
	// Warm the runner with a full batch so the cancelled rerun would
	// expose any stale scratch.
	if _, err := qr.Run(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch, err := qr.Run(ctx, qs)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if batch.Executed >= 10000 {
		t.Fatalf("cancelled run executed all %d queries", batch.Executed)
	}
	// Unexecuted entries must be zero, not the previous batch's hops.
	for i := batch.Executed; i < len(batch.Hops); i++ {
		if batch.Hops[i] != 0 {
			t.Fatalf("query %d holds stale hops %v after cancellation", i, batch.Hops[i])
		}
	}
}

// TestRunnerZeroAllocSteadyState is the acceptance bar: once warmed, a
// single-worker runner routes whole batches without a single heap
// allocation.
func TestRunnerZeroAllocSteadyState(t *testing.T) {
	ov := buildTestOverlay(t, 1024)
	qr := NewQueryRunner(ov, withWorkers(1))
	qs := RandomPairs(ov, 6, 256)
	ctx := context.Background()
	if _, err := qr.Run(ctx, qs); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := qr.Run(ctx, qs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Run allocates %.1f times per batch, want 0", allocs)
	}
}
