package exp

import (
	"context"
	"fmt"
	"math"

	"smallworld"
	"smallworld/overlaynet"
)

// routeHops routes `queries` random node-to-node requests through a
// batched overlaynet.QueryRunner (one zero-allocation Router per worker)
// and returns the per-query hop counts. Queries that fail to arrive are
// recorded as the network size (they cannot occur with intact neighbour
// edges; the sentinel would make a regression obvious in every table).
func routeHops(nw *smallworld.Network, seed uint64, queries int) []float64 {
	return overlayHops(overlaynet.WrapNetwork(nw), seed, queries)
}

// overlayHops is routeHops over any overlay.
func overlayHops(ov overlaynet.Overlay, seed uint64, queries int) []float64 {
	qr := overlaynet.NewQueryRunner(ov, overlaynet.FailHops(float64(ov.N())))
	batch, err := qr.Run(context.Background(), overlaynet.RandomPairs(ov, seed, queries))
	if err != nil {
		// Unreachable with a background context; if an error path ever
		// appears, every query reports the failure sentinel.
		return failedHops(queries, ov.N())
	}
	return batch.Hops
}

// failedHops is an all-sentinel hop slice: every query failed.
func failedHops(queries, n int) []float64 {
	hops := make([]float64, queries)
	for i := range hops {
		hops[i] = float64(n)
	}
	return hops
}

// log2 is a float shorthand.
func log2(n int) float64 { return math.Log2(float64(n)) }

// log2f is log2 over a float population (mean sizes from churn runs).
func log2f(n float64) float64 { return math.Log2(n) }

// fmtF renders a float cell without decimals.
func fmtF(v float64) string { return fmt.Sprintf("%.0f", v) }

// sizesFor returns the network-size sweep for a scale.
func sizesFor(scale Scale) []int {
	if scale == Quick {
		return []int{256, 512, 1024}
	}
	return []int{256, 512, 1024, 2048, 4096, 8192, 16384}
}

// queriesFor returns the query count per configuration for a scale.
func queriesFor(scale Scale) int {
	if scale == Quick {
		return 400
	}
	return 2500
}
