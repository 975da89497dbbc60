package graph

import (
	"sort"
	"sync"
)

// AssembleCSR builds a CSR in two parallel passes over the nodes:
//
//  1. degree counting — rowLen(u) for every node, written into the
//     offsets array and prefix-summed into row boundaries;
//  2. fill — fillRow(u, row) writes node u's out-neighbours into its
//     slot of the final flat target array, and the row is sorted
//     ascending in place.
//
// Both passes split the node range into contiguous per-worker chunks,
// so the output is independent of workers (every row is written by
// exactly one goroutine into a disjoint segment).
//
// fillRow must write exactly rowLen(u) values and they must be distinct
// and free of self-loops — the assembler sorts but does not deduplicate,
// because dropping values would invalidate the already-committed
// offsets. The small-world builder satisfies this by construction
// (sampled links exclude self, neighbours and duplicates), and the
// Watts–Strogatz builder skips self-loops and duplicates as it builds
// its rows.
func AssembleCSR(n, workers int, rowLen func(u int) int, fillRow func(u int, row []int32)) *CSR {
	if n < 0 {
		panic("graph: negative node count")
	}
	c := &CSR{offsets: make([]int32, n+1)}
	ParallelRanges(n, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			c.offsets[u+1] = int32(rowLen(u))
		}
	})
	var m int32
	for u := 0; u < n; u++ {
		m += c.offsets[u+1]
		c.offsets[u+1] = m
	}
	c.targets = make([]int32, m)
	ParallelRanges(n, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			row := c.targets[c.offsets[u]:c.offsets[u+1]]
			fillRow(u, row)
			sortRow(row)
		}
	})
	return c
}

// ParallelRanges runs fn over a static contiguous split of [0, n) into
// up to `workers` ranges. workers <= 1 (or tiny n) runs inline with no
// goroutine overhead. It is exported because construction passes outside
// this package (identifier normalisation, per-node scratch fills) reuse
// the same deterministic work split.
func ParallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// sortRow sorts a neighbour row ascending in place. Rows are short
// (logarithmic degree), so insertion sort beats the generic sort's
// overhead; long rows fall back to the standard library.
func sortRow(row []int32) {
	if len(row) <= 32 {
		for i := 1; i < len(row); i++ {
			v := row[i]
			j := i - 1
			for j >= 0 && row[j] > v {
				row[j+1] = row[j]
				j--
			}
			row[j+1] = v
		}
		return
	}
	sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
}
