package overlaynet

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// BenchmarkQueryRunner measures the batched query engine's steady state
// on the zero-allocation small-world path. With one worker the runner
// routes inline, so allocs/op must read 0 (part of the acceptance bar);
// the parallel variant amortises its per-batch goroutine spawns over
// 1024 queries.
func BenchmarkQueryRunner(b *testing.B) {
	ov := buildTestOverlay(b, 4096)
	qs := RandomPairs(ov, 2, 1024)
	ctx := context.Background()

	b.Run("single-worker-batch1024", func(b *testing.B) {
		qr := NewQueryRunner(ov, withWorkers(1))
		if _, err := qr.Run(ctx, qs); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := qr.Run(ctx, qs); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("parallel-batch1024", func(b *testing.B) {
		qr := NewQueryRunner(ov)
		if _, err := qr.Run(ctx, qs); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := qr.Run(ctx, qs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWorkerCellPadding pins the false-sharing contract: one padded
// cell per worker, sized to cover the adjacent-line prefetch pairing,
// so consecutive workers' counters can never land on one cache line.
func TestWorkerCellPadding(t *testing.T) {
	if got := unsafe.Sizeof(workerCell{}); got != 128 {
		t.Fatalf("workerCell is %d bytes, want 128 (two cache lines)", got)
	}
}

// BenchmarkQueryRunnerScaling sweeps the worker count over a fixed
// batch — the multicore read path the E21 serving tables drive. ns/op
// is per query. With the padded per-worker counter cells (workerCell)
// the only shared mutable state left on the batch path is the
// chunk-boundary cache lines of the hops array, so throughput should
// track GOMAXPROCS up to the physical core count; on a single-core
// host the sweep records scheduling overhead instead (the maxprocs
// label makes the run's setting visible in recorded output).
func BenchmarkQueryRunnerScaling(b *testing.B) {
	ov := buildTestOverlay(b, 1<<16)
	qs := RandomPairs(ov, 11, 4096)
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w=%d/maxprocs=%d", workers, runtime.GOMAXPROCS(0)), func(b *testing.B) {
			qr := NewQueryRunner(ov, withWorkers(workers))
			if _, err := qr.Run(ctx, qs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(qs) {
				if _, err := qr.Run(ctx, qs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
