package overlaynet

import (
	"context"
	"math"
	"slices"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/metrics"
	"smallworld/xrand"
)

func buildProtocolEntry(t *testing.T, opts Options) *protocolOverlay {
	t.Helper()
	ov, err := Build(context.Background(), "protocol", opts)
	if err != nil {
		t.Fatal(err)
	}
	return ov.(*protocolOverlay)
}

// protocolHops routes q random peer-to-peer queries and returns the
// hop counts.
func protocolHops(t *testing.T, ov Overlay, seed uint64, q int) []float64 {
	t.Helper()
	batch, err := NewQueryRunner(ov).Run(context.Background(), RandomPairs(ov, seed, q))
	if err != nil {
		t.Fatal(err)
	}
	return batch.Hops
}

// churnStep applies one event of a mixed schedule drawn from rng.
func churnStep(t *testing.T, dyn Dynamic, rng *xrand.Stream) {
	t.Helper()
	ctx := context.Background()
	if rng.Bool(0.5) {
		if err := dyn.Join(ctx); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := dyn.Leave(ctx, rng.Intn(dyn.N())); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolMatchesIncremental: with the oracle, the protocol entry is
// the incremental writer over the skewed ring constructor plus metering,
// which draws from its own stream — keys, rows and routes stay identical
// to NewIncremental's through any Join/Leave sequence.
func TestProtocolMatchesIncremental(t *testing.T) {
	ctx := context.Background()
	opts := Options{N: 128, Seed: 7, Dist: dist.NewTruncExp(6), Oracle: true}
	p := buildProtocolEntry(t, opts)
	opts.Topology = keyspace.Ring
	ref, err := NewIncremental(ctx, "smallworld-skewed", opts)
	if err != nil {
		t.Fatal(err)
	}
	same := func(step int) {
		t.Helper()
		if !slices.Equal(p.Keys(), ref.Keys()) {
			t.Fatalf("step %d: keys differ", step)
		}
		for u := 0; u < ref.N(); u++ {
			if !slices.Equal(p.Neighbors(u), ref.Neighbors(u)) {
				t.Fatalf("step %d: row %d = %v, incremental %v", step, u, p.Neighbors(u), ref.Neighbors(u))
			}
		}
		pr, rr := p.NewRouter(), ref.NewRouter()
		rng := xrand.New(uint64(step))
		for q := 0; q < 100; q++ {
			src, target := rng.Intn(ref.N()), keyspace.Key(rng.Float64())
			if got, want := pr.Route(src, target), rr.Route(src, target); got != want {
				t.Fatalf("step %d: route %d->%v = %+v, incremental %+v", step, src, target, got, want)
			}
		}
	}
	same(0)
	ops, ropts := xrand.New(3), xrand.New(3)
	for i := 1; i <= 200; i++ {
		churnStep(t, p, ops)
		churnStep(t, ref, ropts)
		if i%25 == 0 {
			same(i)
		}
	}
	if total, maint := p.Messages(); maint == 0 || total <= maint {
		t.Fatalf("Messages() = (%d, %d): joins, repairs and routes were not metered", total, maint)
	}
}

// TestProtocolRoutersMeterConcurrently: routers fanned across
// goroutines add exactly their hops to the shared total, and nothing to
// the maintenance share.
func TestProtocolRoutersMeterConcurrently(t *testing.T) {
	p := buildProtocolEntry(t, Options{N: 256, Seed: 3, Dist: dist.NewPower(0.7), Oracle: true})
	total0, maint0 := p.Messages()
	batch, err := NewQueryRunner(p, withWorkers(4)).Run(context.Background(), RandomPairs(p, 8, 4000))
	if err != nil {
		t.Fatal(err)
	}
	var hops float64
	for _, h := range batch.Hops {
		hops += h
	}
	total, maint := p.Messages()
	if total-total0 != int64(hops) || maint != maint0 {
		t.Fatalf("Messages() moved by (%d, %d) over a batch of %.0f hops, want (%.0f, 0)",
			total-total0, maint-maint0, hops, hops)
	}
}

// TestProtocolInvariants: the entry keeps the writer's invariants
// through churn and refinement rounds in both knowledge modes, routes
// every query to a nearest peer, holds about log2 N long links per
// peer, and — without the oracle — keeps each peer's estimate with its
// identifier across the slot moves a Leave makes.
func TestProtocolInvariants(t *testing.T) {
	ctx := context.Background()
	for _, oracle := range []bool{true, false} {
		name := "estimated"
		if oracle {
			name = "oracle"
		}
		t.Run(name, func(t *testing.T) {
			p := buildProtocolEntry(t, Options{N: 96, Seed: 9, Dist: dist.NewPower(0.7), Oracle: oracle})
			o := p.incrementalOverlay
			if (o.est == nil) != oracle {
				t.Fatalf("estimate state present = %v with Oracle = %v", o.est != nil, oracle)
			}
			check := func(phase string) {
				t.Helper()
				checkIncrementalInvariants(t, o)
				if e := o.est; e != nil && (len(e.seen) != o.N() || len(e.fit) != o.N() || len(e.size) != o.N()) {
					t.Fatalf("%s: estimate state for %d/%d/%d slots at N=%d", phase, len(e.seen), len(e.fit), len(e.size), o.N())
				}
				// Every long link is in exactly one in-list.
				var long metrics.Summary
				for v := range o.N() {
					long.Add(float64(len(o.in.list(int32(v)))))
				}
				if min := math.Log2(float64(o.N())) / 2; long.Mean() < min {
					t.Fatalf("%s: %.1f long links per peer, want at least %.1f", phase, long.Mean(), min)
				}
				r := p.NewRouter()
				rng := xrand.New(17)
				keys := o.Keys()
				for q := 0; q < 200; q++ {
					src, target := rng.Intn(o.N()), keyspace.Key(rng.Float64())
					res := r.Route(src, target)
					best := keyspace.Ring.Distance(keys[0], target)
					for _, k := range keys {
						best = math.Min(best, keyspace.Ring.Distance(k, target))
					}
					if !res.Arrived || keyspace.Ring.Distance(keys[res.Dest], target) > best {
						t.Fatalf("%s: route %d->%v ended at %d (%+v), nearest peer is at distance %v",
							phase, src, target, res.Dest, res, best)
					}
				}
			}
			check("build")
			rng := xrand.New(5)
			for i := 0; i < 120; i++ {
				var fits map[keyspace.Key]*dist.Piecewise
				if o.est != nil {
					fits = make(map[keyspace.Key]*dist.Piecewise, o.N())
					for u, k := range o.Keys() {
						fits[k] = o.est.fit[u]
					}
				}
				if i%10 == 0 {
					o.CaptureSnapshot()
				}
				churnStep(t, p, rng)
				checkIncrementalInvariants(t, o)
				for u, k := range o.Keys() {
					if f, ok := fits[k]; ok && o.est.fit[u] != f {
						t.Fatalf("event %d: slot %d (key %v) holds another peer's estimate", i, u, k)
					}
				}
			}
			check("churn")
			for round := 0; round < 2; round++ {
				if err := p.Maintain(ctx); err != nil {
					t.Fatal(err)
				}
			}
			check("maintain")
			for i := 0; i < 40; i++ {
				churnStep(t, p, rng)
			}
			check("churn after maintain")
		})
	}
}

// TestProtocolJoinCost: a join's locate route plus its log2 N link
// routes cost O(log² N) hops, on uniform and on skewed f, and a leave's
// repairs are metered too.
func TestProtocolJoinCost(t *testing.T) {
	ctx := context.Background()
	for _, d := range []dist.Distribution{dist.Uniform{}, dist.NewPower(0.7)} {
		t.Run(d.Name(), func(t *testing.T) {
			p := buildProtocolEntry(t, Options{N: 512, Seed: 5, Dist: d, Oracle: true})
			var cost metrics.Summary
			for i := 0; i < 100; i++ {
				_, before := p.Messages()
				if err := p.Join(ctx); err != nil {
					t.Fatal(err)
				}
				_, after := p.Messages()
				cost.Add(float64(after - before))
			}
			log2N := math.Log2(float64(p.N()))
			if cost.Mean() > 2*log2N*log2N || cost.Mean() < log2N {
				t.Errorf("mean join cost %.1f hops, want within [log2 N, 2·log2² N] = [%.1f, %.1f]",
					cost.Mean(), log2N, 2*log2N*log2N)
			}
			_, before := p.Messages()
			for i := 0; i < 20; i++ {
				if err := p.Leave(ctx, i); err != nil {
					t.Fatal(err)
				}
			}
			if _, after := p.Messages(); after == before {
				t.Error("20 leaves metered no repair traffic")
			}
			if m := metrics.Mean(protocolHops(t, p, 7, 500)); m > 3*log2N {
				t.Errorf("mean hops %.1f after joins, want below 3·log2 N = %.1f", m, 3*log2N)
			}
		})
	}
}

// TestEstimatedModeConverges is E11 in miniature: peers that start with
// a uniform estimate of f route worse than the oracle overlay; after
// refinement rounds they approach it.
func TestEstimatedModeConverges(t *testing.T) {
	ctx := context.Background()
	d := dist.NewTruncExp(6)
	oracle := buildProtocolEntry(t, Options{N: 256, Seed: 11, Dist: d, Oracle: true})
	est := buildProtocolEntry(t, Options{N: 256, Seed: 11, Dist: d})

	oracleHops := metrics.Mean(protocolHops(t, oracle, 12, 800))
	before := metrics.Mean(protocolHops(t, est, 12, 800))
	for round := 0; round < 9; round++ {
		if err := est.Maintain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	after := metrics.Mean(protocolHops(t, est, 12, 800))
	if after > before {
		t.Errorf("refinement made routing worse: %.2f -> %.2f", before, after)
	}
	if after > 1.6*oracleHops {
		t.Errorf("refined overlay %.2f hops, oracle %.2f — did not converge", after, oracleHops)
	}
}

// TestProtocolSizeEstimate: each peer estimates N from the estimated
// mass between its key-order neighbours. Single estimates are noisy
// (gaps are exponential), but their mean stays within an order of
// magnitude of the truth.
func TestProtocolSizeEstimate(t *testing.T) {
	p := buildProtocolEntry(t, Options{N: 512, Seed: 23})
	if err := p.Maintain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := metrics.Mean(p.est.size); m < 32 || m > 5120 {
		t.Errorf("mean size estimate %.0f, truth 512", m)
	}
}

// TestProtocolWalksStayLive: a refinement round observes only live
// peers — walk endpoints and newly placed link targets — even after
// leaves have moved slots around.
func TestProtocolWalksStayLive(t *testing.T) {
	p := buildProtocolEntry(t, Options{N: 64, Seed: 22, Dist: dist.NewPower(0.7)})
	rng := xrand.New(4)
	for i := 0; i < 30; i++ {
		churnStep(t, p, rng)
	}
	e := p.est
	for u := range e.seen {
		e.seen[u] = e.seen[u][:0]
	}
	if err := p.Maintain(context.Background()); err != nil {
		t.Fatal(err)
	}
	live := make(map[keyspace.Key]bool, p.N())
	for _, k := range p.Keys() {
		live[k] = true
	}
	for u, seen := range e.seen {
		if len(seen) < refineWalks {
			t.Fatalf("slot %d observed %d keys, want at least %d walk endpoints", u, len(seen), refineWalks)
		}
		for _, k := range seen {
			if !live[k] {
				t.Fatalf("slot %d observed %v, which no live peer holds", u, k)
			}
		}
	}
}
