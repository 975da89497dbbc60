package smallworld

import (
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
)

// TestCompactRoutingEquivalence pins the compact adjacency to the flat
// CSR it encodes, on uniform and skewed builds on both topologies plus
// the ulp-clustered degenerate-spacing regime: every row decodes to the
// same targets in the same order under the same edge numbering, so a
// greedy walk over either representation takes the same decisions. The
// routers themselves read only the flat CSR; CompactCSR backs E20's
// cB/node footprint column.
func TestCompactRoutingEquivalence(t *testing.T) {
	type build struct {
		name string
		nw   *Network
	}
	var builds []build
	for _, topo := range []keyspace.Topology{keyspace.Ring, keyspace.Line} {
		cfg := UniformConfig(2048, 7)
		cfg.Topology = topo
		builds = append(builds, build{"uniform/" + topo.String(), mustBuild(t, cfg)})

		cfg = SkewedConfig(2048, dist.NewPower(0.7), 11)
		cfg.Topology = topo
		builds = append(builds, build{"skewed/" + topo.String(), mustBuild(t, cfg)})

		builds = append(builds, build{"ulpclusters/" + topo.String(), skewedClusterNetwork(t, topo)})
	}
	for _, bd := range builds {
		t.Run(bd.name, func(t *testing.T) { checkCompactDecode(t, bd.nw) })
	}
}

// checkCompactDecode asserts CompactCSR decodes to exactly the flat
// adjacency, shares its edge numbering, and — at realistic sizes —
// actually shrinks it.
func checkCompactDecode(t *testing.T, nw *Network) {
	t.Helper()
	c, z := nw.CSR(), nw.CompactCSR()
	if z.N() != c.N() || z.M() != c.M() {
		t.Fatalf("compact %d nodes / %d edges, flat %d / %d", z.N(), z.M(), c.N(), c.M())
	}
	var buf []int32
	for u := 0; u < c.N(); u++ {
		if z.RowStart(u) != c.RowStart(u) || z.OutDegree(u) != c.OutDegree(u) {
			t.Fatalf("node %d: edge numbering diverges", u)
		}
		buf = z.AppendOut(u, buf)
		flat := c.Out(u)
		if len(buf) != len(flat) {
			t.Fatalf("node %d: decoded %d targets, want %d", u, len(buf), len(flat))
		}
		for j := range flat {
			if buf[j] != flat[j] {
				t.Fatalf("node %d slot %d: decoded %d, want %d", u, j, buf[j], flat[j])
			}
		}
	}
	if c.N() >= 1024 {
		flatBytes := int64(c.N()+1)*4 + int64(c.M())*4
		if z.Bytes() >= flatBytes {
			t.Fatalf("compact %d bytes ≥ flat %d bytes at N=%d", z.Bytes(), flatBytes, c.N())
		}
	}
}
