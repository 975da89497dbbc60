package smallworld

import (
	"slices"
	"testing"

	"smallworld/dist"
	"smallworld/graph"
	"smallworld/keyspace"
)

// The direct-to-CSR assembly must be bit-identical to the legacy
// build-a-graph-then-freeze path it replaced: same flat adjacency for
// every (topology, measure, sampler, seed), and independent of Workers.
// These tests rebuild the adjacency from the network's neighbour rule
// and sampled links the way the legacy path did and compare the result
// row by row.

// legacyCSR reconstructs the legacy assembly independently of
// AssembleCSR: every edge except a self-loop appended to its source's
// row (neighbouring edges, then the sampled long-range links), each row
// sorted and deduplicated, then the rows concatenated into a CSR.
func legacyCSR(nw *Network) *graph.CSR {
	n := nw.N()
	rows := make([][]int32, n)
	edge := func(u, v int) {
		if u != v {
			rows[u] = append(rows[u], int32(v))
		}
	}
	for i := 0; i+1 < n; i++ {
		edge(i, i+1)
		edge(i+1, i)
	}
	if nw.Config().Topology == keyspace.Ring && n > 2 {
		edge(n-1, 0)
		edge(0, n-1)
	}
	for u := 0; u < n; u++ {
		for _, v := range nw.LongRange(u) {
			edge(u, int(v))
		}
	}
	offsets := make([]int32, n+1)
	var targets []int32
	for u, row := range rows {
		slices.Sort(row)
		targets = append(targets, slices.Compact(row)...)
		offsets[u+1] = int32(len(targets))
	}
	return graph.NewCSR(offsets, targets)
}

// equalCSR compares two CSRs bit for bit.
func equalCSR(t *testing.T, label string, a, b *graph.CSR) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("%s: CSR shape differs: %dx%d vs %dx%d", label, a.N(), a.M(), b.N(), b.M())
	}
	for u := 0; u < a.N(); u++ {
		ra, rb := a.Out(u), b.Out(u)
		if len(ra) != len(rb) {
			t.Fatalf("%s: node %d row length %d vs %d", label, u, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: node %d row %v vs %v", label, u, ra, rb)
			}
		}
	}
}

func TestDirectCSRMatchesLegacyFreeze(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"uniform-geometric-ring-protocol", func() Config {
			c := UniformConfig(300, 21)
			c.Topology = keyspace.Ring
			c.Sampler = Protocol
			return c
		}()},
		{"skewed-mass-ring-exact", func() Config {
			c := SkewedConfig(257, dist.NewPower(0.8), 22)
			c.Topology = keyspace.Ring
			c.Sampler = Exact
			return c
		}()},
		{"skewed-mass-line-protocol", func() Config {
			c := SkewedConfig(256, dist.NewTruncExp(6), 23)
			c.Sampler = Protocol
			return c
		}()},
		{"uniform-geometric-line-exact", func() Config {
			c := UniformConfig(128, 24)
			c.Sampler = Exact
			return c
		}()},
		{"kleinberg-r2-ring", func() Config {
			c := KleinbergConfig(200, 5, 2, 25)
			c.Topology = keyspace.Ring
			c.Sampler = Exact
			return c
		}()},
		{"tiny-n3-ring", func() Config {
			c := UniformConfig(3, 27)
			c.Topology = keyspace.Ring
			return c
		}()},
		{"tiny-n4-line", UniformConfig(4, 28)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seedShift := range []uint64{0, 100} {
				cfg := tc.cfg
				cfg.Seed += seedShift
				nw := mustBuild(t, cfg)
				equalCSR(t, tc.name, legacyCSR(nw), nw.CSR())
			}
		})
	}
}

// TestDirectCSRWorkerIndependence pins the whole network — links and
// assembled CSR — bit-identical across Workers ∈ {1, 4, 8}.
func TestDirectCSRWorkerIndependence(t *testing.T) {
	for _, sampler := range []SamplerKind{Exact, Protocol} {
		cfg := SkewedConfig(700, dist.NewPower(0.7), 31)
		cfg.Topology = keyspace.Ring
		cfg.Sampler = sampler
		var ref *Network
		for _, workers := range []int{1, 4, 8} {
			cfg.Workers = workers
			nw := mustBuild(t, cfg)
			if ref == nil {
				ref = nw
				continue
			}
			equalCSR(t, sampler.String(), ref.CSR(), nw.CSR())
			for u := 0; u < nw.N(); u++ {
				a, b := ref.LongRange(u), nw.LongRange(u)
				if len(a) != len(b) {
					t.Fatalf("%v workers=%d: node %d link count %d vs %d", sampler, workers, u, len(b), len(a))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%v workers=%d: node %d link %d vs %d", sampler, workers, u, b[i], a[i])
					}
				}
			}
		}
	}
}
