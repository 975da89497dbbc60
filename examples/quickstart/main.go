// Quickstart: build a skew-adapted small-world overlay (the paper's
// Model 2) over a heavily skewed key population, route some lookups, and
// confirm the two headline properties — O(log N) hops and O(log N)
// routing state — hold despite the skew.
package main

import (
	"fmt"
	"log"
	"math"

	"smallworld"
	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/metrics"
	"smallworld/xrand"
)

func main() {
	const n = 4096

	// Peers follow a Zipf-shaped identifier density: the hot quarter of
	// the key space holds most of the peers, as happens when peers place
	// themselves to balance skewed data (Section 4 of the paper).
	f := dist.NewZipf(256, 1.0)

	nw, err := smallworld.Build(smallworld.Config{
		N:        n,
		Dist:     f,
		Measure:  smallworld.Mass,     // Eq. (7): links ∝ 1/probability mass
		Sampler:  smallworld.Protocol, // what a deployed peer would do
		Topology: keyspace.Ring,
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}

	deg := nw.CSR().DegreeStats()
	fmt.Printf("built %d-peer overlay on %s keys\n", nw.N(), f.Name())
	fmt.Printf("routing state: mean %.1f links/peer (log2 N = %.0f)\n\n",
		deg.Mean(), math.Log2(n))

	// Route 2000 random lookups.
	rng := xrand.New(7)
	hops := make([]float64, 0, 2000)
	for i := 0; i < 2000; i++ {
		src := rng.Intn(nw.N())
		dst := rng.Intn(nw.N())
		route := nw.RouteToNode(src, dst)
		if !route.Arrived {
			log.Fatalf("lookup %d did not arrive", i)
		}
		hops = append(hops, float64(route.Hops()))
	}

	fmt.Printf("2000 lookups, all arrived\n")
	fmt.Printf("hops: mean %.2f, p95 %.0f, p99 %.0f  (Theorem 2 predicts O(log2 N) = O(%.0f))\n",
		metrics.Mean(hops), metrics.Percentile(hops, 0.95),
		metrics.Percentile(hops, 0.99), math.Log2(n))

	// A single illustrated route.
	target := nw.Key(nw.N() / 2)
	route := nw.RouteGreedy(0, target)
	fmt.Printf("\nexample route to key %.6f (%d hops):\n", target, route.Hops())
	for _, u := range route.Path {
		fmt.Printf("  peer %4d @ %.6f\n", u, nw.Key(u))
	}
}
