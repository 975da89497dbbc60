package sim_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/overlaynet"
	"smallworld/sim"
	"smallworld/wire"
)

func servePublisher(t *testing.T, n int, opts ...overlaynet.PublisherOption) *overlaynet.Publisher {
	t.Helper()
	dyn, err := overlaynet.NewIncremental(context.Background(), "smallworld-skewed", overlaynet.Options{
		N: n, Seed: 21, Dist: dist.NewPower(0.7), Topology: keyspace.Ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := overlaynet.NewPublisher(dyn, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// TestServeUnderChurn is the end-to-end serving contract: closed-loop
// workers route against published snapshots while churn applies, every
// query arrives, and the report carries coherent totals and series.
// Under -race this is the package-level proof of the lock-free read
// path (the CI race gate runs it).
func TestServeUnderChurn(t *testing.T) {
	pub := servePublisher(t, 256, overlaynet.PublishEvery(2))
	rep, err := sim.Serve(context.Background(), pub, sim.ServeConfig{
		Name:      "test",
		Workers:   4,
		Duration:  250 * time.Millisecond,
		Window:    50 * time.Millisecond,
		ChurnRate: 1000, // even a race-throttled writer crosses several epochs
		Seed:      5,
		PinEvery:  128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Queries == 0 {
		t.Fatal("no queries served")
	}
	if rep.Totals.Failures != 0 {
		t.Fatalf("%d/%d queries failed on healthy snapshots", rep.Totals.Failures, rep.Totals.Queries)
	}
	if rep.Totals.Joins+rep.Totals.Leaves == 0 {
		t.Fatal("no churn applied")
	}
	if rep.Totals.Epochs < 2 {
		t.Fatalf("epochs = %d, want >= 2 with churn across the boundary", rep.Totals.Epochs)
	}
	if rep.HopsMean <= 0 || rep.QPS <= 0 || rep.LatP99Us <= 0 {
		t.Fatalf("degenerate aggregates: hops %v qps %v latp99 %v", rep.HopsMean, rep.QPS, rep.LatP99Us)
	}
	for _, name := range []string{sim.SeriesQPS, sim.SeriesHopsP95, sim.SeriesLatP95Us, sim.SeriesEpoch} {
		s := rep.Get(name)
		if s == nil || s.Len() == 0 {
			t.Fatalf("series %q missing or empty", name)
		}
	}
	// Exporters run on the real report shape.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"lat_p99_us"`) {
		t.Fatal("JSON missing latency aggregate")
	}
	buf.Reset()
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "t,qps,") {
		t.Fatalf("CSV header = %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	if !strings.Contains(rep.String(), "totals:") {
		t.Fatal("String() missing totals line")
	}
}

// TestServeChurnRateDelivered: churn is scheduled open-loop, so a
// writer slowed by busy readers catches up instead of falling behind
// for good. Beside four closed-loop workers at 1000 events/s, at least
// half of the events offered in the run's window must be applied. One
// metrics window spans the run, so only the schedule is under test
// here; TestServeWindowsDoNotStarveChurn covers short windows.
func TestServeChurnRateDelivered(t *testing.T) {
	const rate, window = 1000, 500 * time.Millisecond
	pub := servePublisher(t, 256, overlaynet.PublishEvery(2))
	rep, err := sim.Serve(context.Background(), pub, sim.ServeConfig{
		Workers:   4,
		Duration:  window,
		Window:    window,
		ChurnRate: rate,
		Seed:      12,
		PinEvery:  128,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := rep.Totals.Joins + rep.Totals.Leaves + rep.Totals.Rejected
	if offered := rate * window.Seconds(); float64(events) < offered/2 {
		t.Fatalf("%d churn events in a %v window, want at least half of the %.0f offered", events, window, offered)
	}
}

// TestServeWindowsDoNotStarveChurn: window closes (the drain, the sort
// and the series update) run on a recorder goroutine, not the writer,
// so short windows leave the writer its time. Beside four closed-loop
// workers at 1000 events/s for 500 ms, in ten 50 ms windows, at least
// three quarters of the offered events must be applied.
func TestServeWindowsDoNotStarveChurn(t *testing.T) {
	const rate, run = 1000, 500 * time.Millisecond
	pub := servePublisher(t, 256, overlaynet.PublishEvery(2))
	rep, err := sim.Serve(context.Background(), pub, sim.ServeConfig{
		Workers:   4,
		Duration:  run,
		Window:    50 * time.Millisecond,
		ChurnRate: rate,
		Seed:      12,
		PinEvery:  128,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := rep.Totals.Joins + rep.Totals.Leaves + rep.Totals.Rejected
	if offered := rate * run.Seconds(); float64(events) < 0.75*offered {
		t.Fatalf("%d churn events in %v of 50 ms windows, want at least three quarters of the %.0f offered", events, run, offered)
	}
	if churn := rep.Get(sim.SeriesChurn); churn == nil || len(churn.Points) < 5 {
		t.Fatalf("churn series %v, want a point per window", churn)
	}
}

// TestServeFrozen covers ChurnRate 0: the population must not move and
// exactly one epoch serves the whole run.
func TestServeFrozen(t *testing.T) {
	pub := servePublisher(t, 128)
	rep, err := sim.Serve(context.Background(), pub, sim.ServeConfig{
		Workers: 2, Duration: 60 * time.Millisecond, Window: 20 * time.Millisecond, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Joins+rep.Totals.Leaves != 0 {
		t.Fatal("frozen run churned")
	}
	if rep.Totals.StartNodes != 128 || rep.Totals.FinalNodes != 128 {
		t.Fatalf("population moved: %d -> %d", rep.Totals.StartNodes, rep.Totals.FinalNodes)
	}
	if rep.Totals.Epochs != 1 {
		t.Fatalf("epochs = %d, want 1", rep.Totals.Epochs)
	}
	if rep.Totals.Failures != 0 {
		t.Fatalf("%d failures on a frozen overlay", rep.Totals.Failures)
	}
}

// TestServePopulationGuards pins the drain clamp: a leave-only load
// against MinNodes must reject events rather than error or panic.
func TestServePopulationGuards(t *testing.T) {
	pub := servePublisher(t, 16, overlaynet.PublishEvery(1))
	rep, err := sim.Serve(context.Background(), pub, sim.ServeConfig{
		Workers: 1, Duration: 80 * time.Millisecond, Window: 40 * time.Millisecond,
		ChurnRate: 2000, JoinFrac: 1e-9, MinNodes: 12, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Totals.FinalNodes; n < 12 {
		t.Fatalf("population %d below MinNodes 12", n)
	}
	if rep.Totals.Rejected == 0 {
		t.Fatal("no rejections at the floor")
	}
}

// TestServeContextCancel: cancellation ends the run early and reports
// the context error with the partial report intact.
func TestServeContextCancel(t *testing.T) {
	pub := servePublisher(t, 64)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	rep, err := sim.Serve(ctx, pub, sim.ServeConfig{
		Workers: 2, Duration: 10 * time.Second, Window: 10 * time.Millisecond, Seed: 9,
	})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if rep == nil || rep.Totals.Queries == 0 {
		t.Fatal("no partial report")
	}
	if rep.Seconds > 5 {
		t.Fatalf("run lasted %.2fs after a 30ms deadline", rep.Seconds)
	}
}

func TestServeValidation(t *testing.T) {
	pub := servePublisher(t, 16)
	for _, cfg := range []sim.ServeConfig{
		{ChurnRate: -1},
		{ChurnRate: math.Inf(1)},
		{JoinFrac: 2},
		{JoinFrac: -0.5},
		{JoinFrac: math.NaN()},
	} {
		if _, err := sim.Serve(context.Background(), pub, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if _, err := sim.Serve(context.Background(), nil, sim.ServeConfig{}); err == nil {
		t.Fatal("nil publisher accepted")
	}
}

func TestServePresets(t *testing.T) {
	names := sim.ServePresetNames()
	if len(names) == 0 {
		t.Fatal("no serve presets")
	}
	for _, name := range names {
		cfg, err := sim.ServePreset(name, 256)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Name != name {
			t.Fatalf("preset %q names itself %q", name, cfg.Name)
		}
	}
	if _, err := sim.ServePreset("steady", 1); err == nil {
		t.Fatal("preset accepted n=1")
	}
	if _, err := sim.ServePreset("no-such", 256); err == nil {
		t.Fatal("unknown preset accepted")
	}
	// One preset runs end to end (scaled down for test time).
	cfg, err := sim.ServePreset("steady", 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 50 * time.Millisecond
	cfg.Window = 25 * time.Millisecond
	cfg.Workers = 2
	rep, err := sim.Serve(context.Background(), servePublisher(t, 64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Queries == 0 {
		t.Fatal("preset served no queries")
	}
}

// TestServeSharded runs the closed loop through a 4-shard cluster over
// the channel wire: queries ride real message sends, the report gains
// the cross-shard forwarding series, and nothing fails on a loss-free
// transport.
func TestServeSharded(t *testing.T) {
	pub := servePublisher(t, 256, overlaynet.PublishEvery(2))
	rep, err := sim.Serve(context.Background(), pub, sim.ServeConfig{
		Name:      "sharded",
		Workers:   4,
		Duration:  250 * time.Millisecond,
		Window:    50 * time.Millisecond,
		ChurnRate: 500,
		Seed:      5,
		PinEvery:  128,
		Shards:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Queries == 0 {
		t.Fatal("no queries served")
	}
	// Workers share one cluster but pin epochs independently, so under
	// churn a few queries race a fresher serving epoch and fail cleanly
	// (see ServeConfig.Shards). The wire itself loses nothing.
	if frac := float64(rep.Totals.Failures) / float64(rep.Totals.Queries); frac > 0.01 {
		t.Fatalf("%d/%d queries failed over a loss-free wire", rep.Totals.Failures, rep.Totals.Queries)
	}
	if rep.Shards != 4 {
		t.Fatalf("report shards = %d", rep.Shards)
	}
	if rep.CrossMean <= 0 {
		t.Fatal("no cross-shard forwards on uniform targets over 4 shards")
	}
	s := rep.Get(sim.SeriesCrossShard)
	if s == nil || s.Len() == 0 {
		t.Fatal("cross-shard series missing")
	}
	if !strings.Contains(rep.String(), "cross-shard") {
		t.Fatal("String() missing the sharded line")
	}
}

// TestServeShardedSeriesAbsentUnsharded pins report-shape stability:
// a monolithic run's series set must not grow the cross-shard series
// (recorded serve JSON from earlier releases stays comparable).
func TestServeShardedSeriesAbsentUnsharded(t *testing.T) {
	pub := servePublisher(t, 64)
	rep, err := sim.Serve(context.Background(), pub, sim.ServeConfig{
		Duration: 60 * time.Millisecond, Window: 20 * time.Millisecond, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Get(sim.SeriesCrossShard) != nil {
		t.Fatal("unsharded run emitted the cross-shard series")
	}
	if rep.Shards != 0 {
		t.Fatalf("unsharded report shards = %d", rep.Shards)
	}
}

// TestServeShardedLossy composes the shard plane with message-level
// faults: a lossy FaultTransport under every frame, client timeouts
// and retries as the recovery path. The run must terminate with the
// overwhelming majority of queries served.
func TestServeShardedLossy(t *testing.T) {
	pub := servePublisher(t, 128, overlaynet.PublishEvery(2))
	model, err := netmodel.New(netmodel.Config{Loss: 0.05}, 11)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Serve(context.Background(), pub, sim.ServeConfig{
		Name:         "sharded-lossy",
		Workers:      2,
		Duration:     200 * time.Millisecond,
		Window:       50 * time.Millisecond,
		Seed:         7,
		PinEvery:     64,
		Shards:       4,
		Transport:    wire.NewFault(wire.NewChan(), model, nil),
		ShardTimeout: 5 * time.Millisecond,
		ShardRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Queries == 0 {
		t.Fatal("no queries served under loss")
	}
	// 5% frame loss with 3 retries leaves well under 1% of queries
	// unserved; anything higher means retries are not resending.
	if frac := float64(rep.Totals.Failures) / float64(rep.Totals.Queries); frac > 0.05 {
		t.Fatalf("%.1f%% of queries failed at 5%% loss with retries", 100*frac)
	}
}
