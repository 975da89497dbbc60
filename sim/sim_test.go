package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"smallworld/dist"
	"smallworld/overlaynet"
	"smallworld/sim"
	"smallworld/xrand"
)

// buildProtocol constructs a fresh Section 4.2 protocol overlay for one
// simulation run.
func buildProtocol(t testing.TB, n int, seed uint64) overlaynet.Dynamic {
	t.Helper()
	ov, err := overlaynet.Build(context.Background(), "protocol", overlaynet.Options{
		N:      n,
		Seed:   seed,
		Dist:   dist.NewPower(0.7),
		Oracle: true,
	})
	if err != nil {
		t.Fatalf("build protocol: %v", err)
	}
	dyn, ok := ov.(overlaynet.Dynamic)
	if !ok {
		t.Fatal("protocol overlay is not Dynamic")
	}
	return dyn
}

// steadyScenario is a small steady-churn scenario with tracing on.
func steadyScenario(seed uint64) sim.Scenario {
	sc, _ := sim.Preset("steady", 64)
	sc.Duration = 50
	sc.Seed = seed
	sc.RecordTrace = true
	return sc
}

// TestRunDeterminism is the replay witness the acceptance criteria
// require: one fixed-seed scenario run twice on identically built
// overlays must produce bit-identical event sequences and metric
// series.
func TestRunDeterminism(t *testing.T) {
	run := func(seed uint64) *sim.Report {
		rep, err := sim.Run(context.Background(), buildProtocol(t, 64, 9), steadyScenario(seed))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return rep
	}
	a, b := run(5), run(5)
	if len(a.Trace) == 0 {
		t.Fatal("trace empty; determinism test has no witness")
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatal("event traces differ between identical runs")
	}
	if !reflect.DeepEqual(a.Series, b.Series) {
		t.Fatal("metric series differ between identical runs")
	}
	if !reflect.DeepEqual(a.Hops, b.Hops) {
		t.Fatal("hop sequences differ between identical runs")
	}
	// A different engine seed must steer the trajectory elsewhere.
	c := run(6)
	if reflect.DeepEqual(a.Trace, c.Trace) {
		t.Fatal("different seeds replayed the same trace")
	}
}

func TestSteadyChurnKeepsRouting(t *testing.T) {
	sc := steadyScenario(3)
	rep, err := sim.Run(context.Background(), buildProtocol(t, 64, 4), sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Totals.Queries == 0 || rep.Totals.Joins == 0 || rep.Totals.Leaves == 0 {
		t.Fatalf("scenario inert: %+v", rep.Totals)
	}
	if rep.Totals.FailRate() > 0.05 {
		t.Errorf("failure rate %.3f under steady churn, want ~0", rep.Totals.FailRate())
	}
	live := rep.Get(sim.SeriesLiveNodes)
	if live == nil || live.Len() == 0 {
		t.Fatal("no live-node series")
	}
	for _, p := range live.Points {
		if p.V < 16 || p.V > 256 {
			t.Errorf("population drifted implausibly: %v at t=%v", p.V, p.T)
		}
	}
	if got, want := live.Len(), 5; got != want {
		t.Errorf("windows recorded = %d, want %d", got, want)
	}
}

func TestFlashCrowdGrowsPopulation(t *testing.T) {
	sc, err := sim.Preset("flashcrowd", 64)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 7
	rep, err := sim.Run(context.Background(), buildProtocol(t, 64, 8), sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Totals.FinalNodes < 64+20 {
		t.Errorf("flash crowd of 32 joins left only %d nodes", rep.Totals.FinalNodes)
	}
	live := rep.Get(sim.SeriesLiveNodes)
	first, _ := live.Points[0], live.Points[live.Len()-1]
	if first.V > 80 {
		t.Errorf("population grew before the crowd arrived: %v", first.V)
	}
}

func TestMassFailureDipsAndRecovers(t *testing.T) {
	sc, err := sim.Preset("massfail", 64)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 11
	rep, err := sim.Run(context.Background(), buildProtocol(t, 64, 12), sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	live := rep.Get(sim.SeriesLiveNodes)
	min := live.Points[0].V
	for _, p := range live.Points {
		if p.V < min {
			min = p.V
		}
	}
	if min > 56 {
		t.Errorf("no visible dip from a 25%% mass failure: min population %v", min)
	}
	if rep.Totals.FinalNodes < 50 {
		t.Errorf("population did not recover: final %d", rep.Totals.FinalNodes)
	}
	if rep.Totals.Maintenance == 0 {
		t.Error("massfail preset should run maintenance rounds")
	}
	if rep.Totals.MaintMessages <= 0 {
		t.Error("protocol overlay should meter maintenance traffic")
	}
}

func TestSessionsScheduleDepartures(t *testing.T) {
	sc, err := sim.Preset("sessions", 64)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 13
	rep, err := sim.Run(context.Background(), buildProtocol(t, 64, 14), sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Totals.Joins == 0 {
		t.Fatal("sessions produced no joins")
	}
	if rep.Totals.Leaves == 0 {
		t.Error("no session ever ended; lifetime scheduling broken")
	}
}

func TestDiurnalOscillates(t *testing.T) {
	sc, err := sim.Preset("diurnal", 64)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 15
	rep, err := sim.Run(context.Background(), buildProtocol(t, 64, 16), sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	joins := rep.Get(sim.SeriesJoins)
	leaves := rep.Get(sim.SeriesLeaves)
	lo, hi := 1e18, 0.0
	for i := range joins.Points {
		v := joins.Points[i].V + leaves.Points[i].V
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < 1.5*lo {
		t.Errorf("diurnal activity flat: window event counts in [%v, %v]", lo, hi)
	}
}

func TestPopulationGuards(t *testing.T) {
	sc := sim.Scenario{
		Name:     "guard",
		Duration: 20,
		Window:   5,
		Seed:     17,
		MinNodes: 60,
		Arrivals: []sim.Arrival{sim.PoissonChurn{JoinRate: 10, LeaveRate: 10}},
	}
	rep, err := sim.Run(context.Background(), buildProtocol(t, 64, 18), sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Totals.FinalNodes < 60 {
		t.Errorf("population %d below the MinNodes guard 60", rep.Totals.FinalNodes)
	}
	if rep.Totals.Rejected == 0 {
		t.Error("a floor this close should have rejected some departures")
	}
}

func TestTraceReplay(t *testing.T) {
	ops := sim.BernoulliTrace(100, 0.7, xrand.New(1))
	joins := 0
	for _, op := range ops {
		if op == sim.OpJoin {
			joins++
		}
	}
	if joins < 55 || joins > 85 {
		t.Errorf("joins = %d of 100, want ~70", joins)
	}
	if sim.OpJoin.String() != "join" || sim.OpLeave.String() != "leave" {
		t.Error("op names wrong")
	}
}

func TestBernoulliTracePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid joinFrac should panic")
		}
	}()
	sim.BernoulliTrace(10, 1.5, xrand.New(2))
}

func TestPresetCatalogue(t *testing.T) {
	names := sim.PresetNames()
	want := []string{"byzantine", "chunks", "diurnal", "flashcrowd", "lossy", "massfail",
		"partition-heal", "sessions", "steady"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("preset names = %v, want %v", names, want)
	}
	for _, name := range names {
		if _, err := sim.Preset(name, 64); err != nil {
			t.Errorf("preset %s: %v", name, err)
		}
	}
	if _, err := sim.Preset("nope", 64); err == nil {
		t.Error("unknown preset should error")
	}
	if _, err := sim.Preset("steady", 1); err == nil {
		t.Error("n < 2 should error")
	}
}

func TestReportExports(t *testing.T) {
	sc := steadyScenario(21)
	sc.RecordTrace = false
	rep, err := sim.Run(context.Background(), buildProtocol(t, 64, 22), sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	var jsonBuf bytes.Buffer
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if decoded["scenario"] != "steady" {
		t.Errorf("scenario field = %v", decoded["scenario"])
	}

	var csvBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV too short:\n%s", csvBuf.String())
	}
	if !strings.HasPrefix(lines[0], "t,"+sim.SeriesHopsMean) {
		t.Errorf("CSV header wrong: %s", lines[0])
	}

	if s := rep.String(); !strings.Contains(s, "totals:") {
		t.Errorf("String() missing totals:\n%s", s)
	}
	if rep.Get("no-such-series") != nil {
		t.Error("Get should return nil for unknown series")
	}
	if q := rep.HopQuantile(0.5); q <= 0 {
		t.Errorf("median hops = %v, want positive", q)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := steadyScenario(23)
	_, err := sim.Run(ctx, buildProtocol(t, 64, 24), sc)
	if err == nil {
		t.Fatal("cancelled context should surface an error")
	}

	// Load-only scenarios (no membership events, so the overlay never
	// sees the context) must still stop: the event loop checks ctx
	// itself.
	loadOnly := sim.Scenario{Name: "load-only", Duration: 100, Window: 10, Seed: 25,
		Load: sim.Load{Rate: 50}}
	if _, err := sim.Run(ctx, buildProtocol(t, 64, 26), loadOnly); err == nil {
		t.Fatal("cancelled context should stop a load-only scenario")
	}
}

func TestScenarioValidation(t *testing.T) {
	ov := buildProtocol(t, 64, 27)
	for _, sc := range []sim.Scenario{
		{Duration: math.NaN()},
		{Duration: math.Inf(1)},
		{Duration: 10, Window: math.NaN()},
		{Duration: 10, Load: sim.Load{Rate: math.NaN()}},
	} {
		if _, err := sim.Run(context.Background(), ov, sc); err == nil {
			t.Errorf("scenario %+v should be rejected", sc)
		}
	}
}

func TestSessionMissesOnRebuild(t *testing.T) {
	// Rebuild overlays resample every key per membership event, so
	// session departures miss their identifier; the report must say so
	// rather than silently dropping them.
	dyn, err := overlaynet.NewRebuild(context.Background(), "chord", overlaynet.Options{N: 64, Seed: 28})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sim.Preset("sessions", 64)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 29
	rep, err := sim.Run(context.Background(), dyn, sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Totals.Joins == 0 {
		t.Fatal("no joins")
	}
	if rep.Totals.SessionMisses == 0 {
		t.Error("rebuild overlay should record session misses")
	}
}

func TestRebuildOverlayDrivable(t *testing.T) {
	ctx := context.Background()
	dyn, err := overlaynet.NewRebuild(ctx, "smallworld-skewed", overlaynet.Options{
		N: 64, Seed: 25, Dist: dist.NewPower(0.7),
	})
	if err != nil {
		t.Fatalf("NewRebuild: %v", err)
	}
	sc, _ := sim.Preset("steady", 64)
	sc.Duration = 30
	sc.Seed = 26
	rep, err := sim.Run(ctx, dyn, sc)
	if err != nil {
		t.Fatalf("run on rebuild overlay: %v", err)
	}
	if rep.Totals.Joins == 0 || rep.Totals.Leaves == 0 {
		t.Fatalf("rebuild overlay saw no churn: %+v", rep.Totals)
	}
	if rep.Totals.FailRate() > 0.05 {
		t.Errorf("rebuild overlay failure rate %.3f, want ~0", rep.Totals.FailRate())
	}
	if rep.Overlay != "rebuild:smallworld-skewed" {
		t.Errorf("overlay kind = %q", rep.Overlay)
	}
}
