package sim

import (
	"fmt"
	"sort"
	"strings"

	"smallworld/dist"
	"smallworld/netmodel"
)

// presetFuncs build each named scenario for a starting population n.
// Rates scale with n so every preset exercises a comparable per-node
// intensity whatever the overlay size.
var presetFuncs = map[string]func(n int) Scenario{
	// steady: stationary Poisson churn at 10% of the population per
	// window (half joins, half leaves) under one query per node per
	// window.
	"steady": func(n int) Scenario {
		return Scenario{
			Name:     "steady",
			Duration: 100,
			Window:   10,
			Arrivals: []Arrival{
				PoissonChurn{JoinRate: churnRate(n, 0.10) / 2, LeaveRate: churnRate(n, 0.10) / 2},
			},
			Load: Load{Rate: float64(n) / 10},
		}
	},
	// flashcrowd: light background churn, then half the population
	// joins within one window at t=40.
	"flashcrowd": func(n int) Scenario {
		return Scenario{
			Name:     "flashcrowd",
			Duration: 100,
			Window:   10,
			Arrivals: []Arrival{
				PoissonChurn{JoinRate: churnRate(n, 0.02) / 2, LeaveRate: churnRate(n, 0.02) / 2},
				&FlashCrowd{At: 40, Joins: n / 2, Over: 10},
			},
			Load: Load{Rate: float64(n) / 10},
		}
	},
	// diurnal: sine-modulated churn, peak activity 1.8x the mean, two
	// full day cycles over the run.
	"diurnal": func(n int) Scenario {
		return Scenario{
			Name:     "diurnal",
			Duration: 100,
			Window:   10,
			Arrivals: []Arrival{
				Diurnal{Period: 50, MeanRate: churnRate(n, 0.10), Amplitude: 0.8},
			},
			Load: Load{Rate: float64(n) / 10},
		}
	},
	// massfail: a quarter of the population fails at t=40, recovers
	// over two windows, with periodic maintenance rounds repairing the
	// survivors' routing tables.
	"massfail": func(n int) Scenario {
		return Scenario{
			Name:     "massfail",
			Duration: 100,
			Window:   10,
			Arrivals: []Arrival{
				PoissonChurn{JoinRate: churnRate(n, 0.02) / 2, LeaveRate: churnRate(n, 0.02) / 2},
				&MassFailure{At: 40, Frac: 0.25, RecoverOver: 20},
				Maintenance{Every: 10},
			},
			Load: Load{Rate: float64(n) / 10},
		}
	},
	// lossy: light background churn over a message plane losing 5% of
	// packets independently per hop — the acceptance scenario for the
	// retry discipline: ≥99% of queries must still arrive (possibly
	// degraded) with bounded latency inflation.
	"lossy": func(n int) Scenario {
		return Scenario{
			Name:     "lossy",
			Duration: 100,
			Window:   10,
			Arrivals: []Arrival{
				PoissonChurn{JoinRate: churnRate(n, 0.02) / 2, LeaveRate: churnRate(n, 0.02) / 2},
			},
			Load:   Load{Rate: float64(n) / 10},
			Faults: &netmodel.Config{Loss: 0.05},
		}
	},
	// partition-heal: a perfect message plane that splits into two
	// key-space components at t=40 and heals at t=60. Cross-partition
	// queries become unroutable during the cut; success must return to
	// 100% within one window of healing.
	"partition-heal": func(n int) Scenario {
		return Scenario{
			Name:     "partition-heal",
			Duration: 100,
			Window:   10,
			Arrivals: []Arrival{
				&PartitionEvent{At: 40, HealAt: 60, Cuts: []float64{0.25, 0.75}},
			},
			Load:   Load{Rate: float64(n) / 10},
			Faults: &netmodel.Config{},
		}
	},
	// byzantine: a tenth of the population misroutes or drops traffic,
	// over a lightly lossy plane with light churn — the adversarial
	// scenario for hijack bounding (the 4·N hop cap) and detour
	// recovery.
	"byzantine": func(n int) Scenario {
		return Scenario{
			Name:     "byzantine",
			Duration: 100,
			Window:   10,
			Arrivals: []Arrival{
				PoissonChurn{JoinRate: churnRate(n, 0.02) / 2, LeaveRate: churnRate(n, 0.02) / 2},
			},
			Load:   Load{Rate: float64(n) / 10},
			Faults: &netmodel.Config{Loss: 0.01, ByzantineFrac: 0.10},
		}
	},
	// chunks: the channel-style storage workload — large objects split
	// into sequential chunk keys, written and read in order with a
	// hot-object skew and seek storms, with range scans fetching runs
	// of consecutive chunks, all riding steady churn over the
	// replicated store.
	"chunks": func(n int) Scenario {
		return Scenario{
			Name:     "chunks",
			Duration: 100,
			Window:   10,
			Arrivals: []Arrival{
				PoissonChurn{JoinRate: churnRate(n, 0.10) / 2, LeaveRate: churnRate(n, 0.10) / 2},
			},
			Load: Load{Rate: float64(n) / 10},
			Store: &StoreScenario{
				Replicas:   3,
				Chunks:     true,
				ValueBytes: 1024,
				WriteFrac:  0.30,
				ScanFrac:   0.15,
				Objects:    48,
				ChunkCount: 32,
				SeekFrac:   0.15,
			},
		}
	},
	// sessions: peers arrive with finite lifetimes drawn from a
	// truncated-exponential shape (most sessions short, a heavy tail of
	// long-lived peers), stretched to a mean of roughly two windows.
	"sessions": func(n int) Scenario {
		return Scenario{
			Name:     "sessions",
			Duration: 100,
			Window:   10,
			Arrivals: []Arrival{
				Sessions{Rate: churnRate(n, 0.04), Lifetime: dist.NewTruncExp(4), Scale: 90},
			},
			Load: Load{Rate: float64(n) / 10},
		}
	},
}

// churnRate converts "frac of an n-node population per 10-unit window"
// into events per unit of virtual time.
func churnRate(n int, frac float64) float64 {
	return frac * float64(n) / 10
}

// Preset returns the named scenario sized for a starting population of
// n nodes. See PresetNames for the catalogue.
func Preset(name string, n int) (Scenario, error) {
	f, ok := presetFuncs[name]
	if !ok {
		return Scenario{}, fmt.Errorf("sim: unknown preset %q (have: %s)",
			name, strings.Join(PresetNames(), ", "))
	}
	if n < 2 {
		return Scenario{}, fmt.Errorf("sim: preset needs n >= 2, got %d", n)
	}
	return f(n), nil
}

// PresetNames returns the built-in scenario names in sorted order.
func PresetNames() []string {
	names := make([]string, 0, len(presetFuncs))
	for name := range presetFuncs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
