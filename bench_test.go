package smallworld_test

import (
	"strconv"
	"testing"

	"smallworld"
	"smallworld/dist"
	"smallworld/internal/exp"
	"smallworld/keyspace"
	"smallworld/xrand"
)

// Experiment benches: each regenerates one table of EXPERIMENTS.md at
// quick scale (use cmd/swbench -scale full for the recorded numbers).
// Run `go test -bench=E -v` to print the tables while timing them.

func benchExperiment(b *testing.B, run func(exp.Scale, uint64) exp.Table) {
	var table exp.Table
	for i := 0; i < b.N; i++ {
		table = run(exp.Quick, 1)
	}
	b.StopTimer()
	if len(table.Rows) == 0 {
		b.Fatalf("experiment produced no rows:\n%s", table.String())
	}
	b.Logf("\n%s", table.String())
}

func BenchmarkE1UniformScaling(b *testing.B)     { benchExperiment(b, exp.E1UniformScaling) }
func BenchmarkE2SkewedScaling(b *testing.B)      { benchExperiment(b, exp.E2SkewedScaling) }
func BenchmarkE3ObliviousBaseline(b *testing.B)  { benchExperiment(b, exp.E3ObliviousBaseline) }
func BenchmarkE4DHTComparison(b *testing.B)      { benchExperiment(b, exp.E4DHTComparison) }
func BenchmarkE5OutdegreeTradeoff(b *testing.B)  { benchExperiment(b, exp.E5OutdegreeTradeoff) }
func BenchmarkE6Robustness(b *testing.B)         { benchExperiment(b, exp.E6Robustness) }
func BenchmarkE7StorageBalance(b *testing.B)     { benchExperiment(b, exp.E7StorageBalance) }
func BenchmarkE8PartitionOccupancy(b *testing.B) { benchExperiment(b, exp.E8PartitionOccupancy) }
func BenchmarkE9NormalizationEquivalence(b *testing.B) {
	benchExperiment(b, exp.E9NormalizationEquivalence)
}
func BenchmarkE10JoinProtocol(b *testing.B)     { benchExperiment(b, exp.E10JoinProtocol) }
func BenchmarkE11EstimatedDensity(b *testing.B) { benchExperiment(b, exp.E11EstimatedDensity) }
func BenchmarkE12CANDegradation(b *testing.B)   { benchExperiment(b, exp.E12CANDegradation) }
func BenchmarkE13ProofConstants(b *testing.B)   { benchExperiment(b, exp.E13ProofConstants) }
func BenchmarkE14Mercury(b *testing.B)          { benchExperiment(b, exp.E14Mercury) }
func BenchmarkE15KleinbergExponent(b *testing.B) {
	benchExperiment(b, exp.E15KleinbergExponent)
}
func BenchmarkE16WattsStrogatz(b *testing.B)    { benchExperiment(b, exp.E16WattsStrogatz) }
func BenchmarkE17KleinbergLattice(b *testing.B) { benchExperiment(b, exp.E17KleinbergLattice) }
func BenchmarkE18NodeFailures(b *testing.B)     { benchExperiment(b, exp.E18NodeFailures) }
func BenchmarkE19ChurnDynamics(b *testing.B)    { benchExperiment(b, exp.E19ChurnDynamics) }
func BenchmarkE20LargeScale(b *testing.B)       { benchExperiment(b, exp.E20LargeScale) }

// Micro-benchmarks: costs of the core operations underlying every table.

func buildFor(b *testing.B, n int, sampler smallworld.SamplerKind, d dist.Distribution) *smallworld.Network {
	b.Helper()
	cfg := smallworld.SkewedConfig(n, d, 1)
	cfg.Sampler = sampler
	cfg.Topology = keyspace.Ring
	nw, err := smallworld.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

func BenchmarkBuildProtocolSampler(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildFor(b, n, smallworld.Protocol, dist.NewPower(0.8))
			}
		})
	}
}

// BenchmarkBuildExactSampler measures the alias-method exact sampler;
// its naive cumulative-table twin is BenchmarkBuildExactSamplerNaive in
// internal/smallworld (the flattening PR's acceptance bar is ≥ 5× at
// N=4096).
func BenchmarkBuildExactSampler(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildFor(b, n, smallworld.Exact, dist.NewPower(0.8))
			}
		})
	}
}

// BenchmarkBuildMillion pins the tentpole scale: one full N = 2^20
// uniform-key build through the direct-to-CSR two-pass assembly (the
// acceptance bar is that a single iteration completes in CI's
// -benchtime 1x smoke run). bytes/node reports the resident footprint
// of the finished overlay.
func BenchmarkBuildMillion(b *testing.B) {
	cfg := smallworld.UniformConfig(1<<20, 1)
	cfg.Sampler = smallworld.Protocol
	cfg.Topology = keyspace.Ring
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nw, err := smallworld.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(nw.Footprint())/float64(nw.N()), "bytes/node")
	}
}

// BenchmarkRouteGreedy routes through a per-benchmark Router, the
// zero-allocation steady-state path (0 allocs/op is part of the
// acceptance bar; ReportAllocs makes a regression fail visibly).
func BenchmarkRouteGreedy(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			nw := buildFor(b, n, smallworld.Protocol, dist.NewPower(0.8))
			router := nw.NewRouter()
			rng := xrand.New(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				router.RouteGreedy(rng.Intn(n), nw.Key(rng.Intn(n)))
			}
		})
	}
}

func BenchmarkQuantileSample(b *testing.B) {
	for _, d := range []dist.Distribution{
		dist.Uniform{}, dist.NewPower(0.8), dist.NewZipf(1024, 1.0),
		dist.NewMixture([]dist.Distribution{dist.NewTruncNormal(0.2, 0.05), dist.NewTruncNormal(0.7, 0.1)}, []float64{1, 1}),
	} {
		b.Run(d.Name(), func(b *testing.B) {
			rng := xrand.New(5)
			for i := 0; i < b.N; i++ {
				dist.Sample(d, rng)
			}
		})
	}
}
