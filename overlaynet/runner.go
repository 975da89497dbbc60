package overlaynet

import (
	"context"
	"math"
	"runtime"
	"sync"

	"smallworld/keyspace"
	"smallworld/xrand"
)

// Query is one routing request: from node Src to the peer responsible
// for Target.
type Query struct {
	Src    int
	Target keyspace.Key
}

// Batch is the result of one QueryRunner.Run. Its slices alias the
// runner's reusable scratch: they are valid until the next Run on the
// same runner, and callers that need them longer must copy.
type Batch struct {
	// Hops holds the per-query hop counts, indexed like the query slice.
	// Queries that failed to arrive record the runner's fail-hops
	// sentinel (NaN by default; see FailHops).
	Hops []float64
	// Arrived counts the queries whose route terminated at a correct
	// destination.
	Arrived int
	// Executed counts the queries actually routed — less than the batch
	// size only when the context was cancelled mid-run.
	Executed int
}

// Option configures a QueryRunner.
type Option func(*QueryRunner)

// FailHops sets the hop value recorded for queries that do not arrive
// (default NaN). Experiments penalising failures pass the network size,
// making any regression obvious in every aggregate.
func FailHops(h float64) Option {
	return func(qr *QueryRunner) { qr.failHops = h }
}

// cancelCheckEvery is how many queries a worker routes between context
// checks: frequent enough that cancellation is prompt, rare enough that
// the check never shows up in a profile.
const cancelCheckEvery = 64

// SnapshotSource is anything that can hand out the latest immutable
// snapshot of an overlay — a *Publisher in practice. A QueryRunner
// whose overlay implements it switches into serving mode.
type SnapshotSource interface {
	Snapshot() *Snapshot
}

// QueryRunner routes query batches over one overlay with bounded
// parallelism and cooperative cancellation. It amortises all scratch
// state — one Router per worker plus the result buffers — across Run
// calls, so the steady state allocates nothing per query (and, with one
// worker, nothing per batch either: a runner routes with GOMAXPROCS
// workers, and with exactly one it routes inline on the calling
// goroutine). A QueryRunner is not safe for
// concurrent use; create one per experiment loop.
//
// Serving mode: when the overlay implements SnapshotSource (a
// Publisher does), each Run pins ONE snapshot for the whole batch and
// rebinds every worker's SnapshotRouter to it — all queries of a batch
// observe the same epoch, routing stays lock-free against live churn,
// and the rebind is a pointer assignment, so the steady state remains
// allocation-free per query.
type QueryRunner struct {
	ov       Overlay
	src      SnapshotSource // non-nil switches Run into serving mode
	workers  int
	failHops float64

	routers []Router
	hops    []float64
	cells   []workerCell // per-worker counters, one padded cell each
}

// workerCell is one worker's batch counters, padded so adjacent
// workers' cells never share a cache line. The previous layout — two
// parallel []int arrays — packed eight workers' counters into one
// 64-byte line, so every worker's final write (and the spurious
// coherence traffic the hardware prefetcher adds on the adjacent line)
// invalidated every other worker's copy; at 4+ workers that coherence
// ping-pong was the first thing to break linear scaling. 128 bytes
// covers the adjacent-line prefetch pairing on current x86 cores.
type workerCell struct {
	arrived int
	done    int
	_       [112]byte
}

// NewQueryRunner returns a runner over ov with the given options
// applied. Overlays that implement SnapshotSource are served in
// batch-pinned snapshot mode (see QueryRunner).
func NewQueryRunner(ov Overlay, opts ...Option) *QueryRunner {
	qr := &QueryRunner{ov: ov, workers: runtime.GOMAXPROCS(0), failHops: math.NaN()}
	if src, ok := ov.(SnapshotSource); ok {
		qr.src = src
	}
	for _, opt := range opts {
		opt(qr)
	}
	return qr
}

// Run routes every query in qs and returns the per-query hop counts.
// Queries are partitioned into one contiguous chunk per worker; each
// worker routes its chunk through its own Router, checking ctx every
// few dozen queries. On cancellation Run returns the context error and
// a batch whose Executed count reflects the work actually done (the
// Hops entries of unexecuted queries are zero).
func (qr *QueryRunner) Run(ctx context.Context, qs []Query) (Batch, error) {
	n := len(qs)
	if cap(qr.hops) < n {
		qr.hops = make([]float64, n)
	}
	qr.hops = qr.hops[:n]
	clear(qr.hops) // a cancelled run must not leak the previous batch's hops
	workers := qr.workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if qr.src != nil {
		// Serving mode: pin one snapshot for the whole batch and rebind
		// every worker router to it (a pointer assignment — no
		// allocation, no lock on the read path).
		snap := qr.src.Snapshot()
		for len(qr.routers) < workers {
			qr.routers = append(qr.routers, snap.NewRouter())
		}
		for w := 0; w < workers; w++ {
			qr.routers[w].(*SnapshotRouter).Rebind(snap)
		}
	}
	for len(qr.routers) < workers {
		qr.routers = append(qr.routers, qr.ov.NewRouter())
	}
	if len(qr.cells) < workers {
		qr.cells = make([]workerCell, workers)
	}
	for w := 0; w < workers; w++ {
		qr.cells[w] = workerCell{}
	}

	if workers == 1 {
		qr.runChunk(ctx, qs, 0, n, 0)
	} else {
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, n)
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi, w int) {
				defer wg.Done()
				qr.runChunk(ctx, qs, lo, hi, w)
			}(lo, hi, w)
		}
		wg.Wait()
	}

	batch := Batch{Hops: qr.hops}
	for w := 0; w < workers; w++ {
		batch.Arrived += qr.cells[w].arrived
		batch.Executed += qr.cells[w].done
	}
	if err := ctx.Err(); err != nil {
		return batch, err
	}
	return batch, nil
}

// runChunk routes qs[lo:hi] on worker w's router.
func (qr *QueryRunner) runChunk(ctx context.Context, qs []Query, lo, hi, w int) {
	router := qr.routers[w]
	arrived, done := 0, 0
	for i := lo; i < hi; i++ {
		if done%cancelCheckEvery == 0 && ctx.Err() != nil {
			break
		}
		res := router.Route(qs[i].Src, qs[i].Target)
		if res.Arrived {
			arrived++
			qr.hops[i] = float64(res.Hops)
		} else {
			qr.hops[i] = qr.failHops
		}
		done++
	}
	qr.cells[w].arrived = arrived
	qr.cells[w].done = done
}

// RandomPairs returns count node-to-node queries over ov, drawn
// deterministically from seed: uniformly random source and destination
// nodes, the destination's identifier as the target. The draw order
// (source then destination, one pair per query) is part of the format:
// experiment tables depend on it staying stable across releases.
func RandomPairs(ov Overlay, seed uint64, count int) []Query {
	rng := xrand.New(seed)
	qs := make([]Query, count)
	n := ov.N()
	for i := range qs {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		qs[i] = Query{Src: src, Target: ov.Key(dst)}
	}
	return qs
}
