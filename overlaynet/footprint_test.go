package overlaynet

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"smallworld/dist"
	"smallworld/keyspace"
)

// footprintBar bounds the writer's total bytes per node at 2^14 as
// TestWriterFootprint counts them: 158.7 on the ring. A writer that
// also kept a flat key slice (8.0), succ/pred arrays (8.0) and in-list
// rows as long as append-grown capacities (+16.3) counted 191.0, and
// any one of the three alone exceeds the bar.
const footprintBar = 165

// TestWriterFootprint tabulates the incremental writer's bytes per node
// at 2^14, on the skewed ring and on the line, counted from its stores'
// own lengths and capacities (allocation size classes are not counted):
// out-rows and in-lists (each its blocks' targets and the spans of
// block headers), the rank index (chunks), the key mirror (chunks) and
// the spines (span, chunk and flag slices, cum and fence). It fails when
// an in-list row is laid out with inRowRound or more entries of room,
// or when the total exceeds footprintBar. Run it with -v for the table.
func TestWriterFootprint(t *testing.T) {
	const n = 1 << 14
	names := [...]string{"out-rows", "in-lists", "rank index", "key mirror", "spines"}
	var table [2][len(names)]float64
	topos := [2]keyspace.Topology{keyspace.Ring, keyspace.Line}
	for i, topo := range topos {
		dyn, err := NewIncremental(context.Background(), "smallworld-skewed", Options{
			N: n, Seed: 9, Dist: dist.NewPower(0.7), Topology: topo,
		})
		if err != nil {
			t.Fatal(err)
		}
		o := dyn.(*incrementalOverlay)
		for v := range n {
			if room := len(o.in.Row(v)) - len(o.in.list(int32(v))); room >= inRowRound {
				t.Errorf("%v: in-list row %d holds %d entries of room, want at most %d", topo, v, room, inRowRound-1)
			}
		}
		rows := func(as *adjStore) (blocks, spine int) {
			for _, span := range as.spans {
				blocks += cap(span) * int(unsafe.Sizeof(adjBlock{}))
				for _, b := range span {
					blocks += cap(b.tgt) * 4
				}
			}
			return blocks, cap(as.spans)*int(unsafe.Sizeof([]adjBlock(nil))) + cap(as.spanShared) + cap(as.shared)*8
		}
		out, outSpine := rows(o.adj)
		in, inSpine := rows(&o.in.adjStore)
		rs, ks := o.rankM, o.keysM
		rank := 0
		for _, ch := range rs.chunks {
			rank += int(unsafe.Sizeof(*ch)) + cap(ch.keys)*8 + cap(ch.slots)*4
		}
		keys := len(ks.spine) * int(unsafe.Sizeof(keyChunk{}))
		spines := outSpine + inSpine +
			cap(rs.chunks)*8 + cap(rs.cum)*4 + cap(rs.fence)*8 + cap(rs.owned) +
			cap(ks.spine)*8 + cap(ks.owned)
		for j, b := range [...]int{out, in, rank, keys, spines} {
			table[i][j] = float64(b) / n
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "writer bytes/node at n=%d\n%-12s %8s %8s\n", n, "component", "ring", "line")
	var total [2]float64
	for j, name := range names {
		fmt.Fprintf(&sb, "%-12s %8.1f %8.1f\n", name, table[0][j], table[1][j])
		total[0] += table[0][j]
		total[1] += table[1][j]
	}
	fmt.Fprintf(&sb, "%-12s %8.1f %8.1f", "total", total[0], total[1])
	t.Log(sb.String())
	for i, topo := range topos {
		if total[i] > footprintBar {
			t.Errorf("%v: the writer holds %.1f bytes/node, want at most %d", topo, total[i], footprintBar)
		}
	}
}
