package graph

// Compact is a second, smaller representation of the same adjacency a
// CSR holds: per-row delta-encoded targets in uint16 slots, with an
// escape list for deltas that don't fit. For the small-world family —
// where node indices are key ranks and most links land within a few
// thousand ranks — the 4-byte absolute targets shrink to 2-byte
// deltas, roughly halving the adjacency bytes. The routers read the
// flat CSR; the compact form measures how small the adjacency can be
// stored (the footprint column of the scaling experiment).
//
// Encoding, per row u with sorted targets t0 ≤ t1 ≤ … ≤ tk-1:
//
//   - slot 0 holds zigzag(t0 − u): the first target is anchored to the
//     row owner, whose index the decoder already has (the per-row base
//     from the offsets array), and zigzag folds the signed gap into an
//     unsigned slot (predecessors are below u, successors above).
//   - slot j>0 holds tj − tj-1, the non-negative gap to the previous
//     target.
//   - any value that doesn't fit below escapeSentinel is stored as the
//     sentinel, and the absolute int32 target goes to the row's escape
//     list (indexed like a second CSR). Decoding continues delta-wise
//     from the escaped target. Rows that violate the sorted contract
//     still round-trip exactly — a negative gap just escapes.
//
// Row offsets are two-level uint16 as well: rows are grouped into
// blocks of 2^shift, a small int32 array holds each block's absolute
// starting edge index, and a uint16 per row holds the offset relative
// to its block base — offset(i) = base[i>>shift] + rel[i]. The shift
// is chosen per encoding as the largest power of two for which every
// block's edge span fits in a uint16, so the per-row offset cost drops
// from 4 bytes (int32) to 2 + ~4/2^shift bytes; degenerate rows
// (degree beyond 65535 in one block) just shrink the blocks, down to
// shift 0 where the base array carries everything. The escape offsets
// use the same scheme with their own shift. Combined with the 2-byte
// delta slots this is what puts total adjacency under 32 B/node for
// typical small-world degrees.
//
// One uint16 slot per target means offsets are shared semantics with
// the flat CSR: OutDegree and RowStart agree, so per-edge side tables
// (obs link counters) index identically under either representation.
type Compact struct {
	shift  uint     // log2 rows per offset block
	base   []int32  // per-block absolute edge index
	rel    []uint16 // len N+1: offset(i) = base[i>>shift] + rel[i]
	deltas []uint16 // len M

	escShift uint
	escBase  []int32
	escRel   []uint16 // len N+1, same scheme over the escape list
	escapes  []int32
}

// escapeSentinel is the delta slot value marking an escaped target.
const escapeSentinel = 0xFFFF

// maxOffsetShift bounds the adaptive block-size search. 2^16 rows per
// base entry already makes the base array's contribution negligible.
const maxOffsetShift = 16

// zigzag folds an int32 into an unsigned value with small magnitudes
// small: 0→0, -1→1, 1→2, -2→3, …
func zigzag(x int32) uint32 { return uint32((x << 1) ^ (x >> 31)) }

// unzigzag inverts zigzag.
func unzigzag(v uint32) int32 { return int32(v>>1) ^ -int32(v&1) }

// packOffsets folds a flat int32 offsets array (CSR semantics, len
// N+1, non-decreasing) into the two-level form: the largest block
// shift whose every block span fits a uint16, the per-block bases, and
// the per-entry relative offsets. Entry i's block is i>>shift; block
// starts always encode rel 0, so the fold is exact by construction.
func packOffsets(off []int32) (shift uint, base []int32, rel []uint16) {
	shift = maxOffsetShift
	for shift > 0 {
		fits := true
		for start := 0; start < len(off); start += 1 << shift {
			end := min(start+1<<shift, len(off))
			if int64(off[end-1])-int64(off[start]) > 0xFFFF {
				fits = false
				break
			}
		}
		if fits {
			break
		}
		shift--
	}
	base = make([]int32, (len(off)-1)>>shift+1)
	rel = make([]uint16, len(off))
	for i, o := range off {
		if i&(1<<shift-1) == 0 {
			base[i>>shift] = o
		}
		rel[i] = uint16(o - base[i>>shift])
	}
	return shift, base, rel
}

// Compress encodes c. The result is immutable and shares nothing with
// the source CSR.
func Compress(c *CSR) *Compact {
	n := c.N()
	z := &Compact{deltas: make([]uint16, 0, c.M())}
	offsets := make([]int32, n+1)
	escOff := make([]int32, n+1)
	for u := 0; u < n; u++ {
		prev := int32(u)
		for j, t := range c.Out(u) {
			var d int64
			if j == 0 {
				d = int64(zigzag(t - int32(u)))
			} else {
				d = int64(t) - int64(prev)
			}
			if d >= 0 && d < escapeSentinel {
				z.deltas = append(z.deltas, uint16(d))
			} else {
				z.deltas = append(z.deltas, escapeSentinel)
				z.escapes = append(z.escapes, t)
			}
			prev = t
		}
		offsets[u+1] = int32(len(z.deltas))
		escOff[u+1] = int32(len(z.escapes))
	}
	z.shift, z.base, z.rel = packOffsets(offsets)
	z.escShift, z.escBase, z.escRel = packOffsets(escOff)
	return z
}

// off returns entry i of the logical offsets array.
func (z *Compact) off(i int) int {
	return int(z.base[i>>z.shift]) + int(z.rel[i])
}

// escoff returns entry i of the logical escape-offsets array.
func (z *Compact) escoff(i int) int {
	return int(z.escBase[i>>z.escShift]) + int(z.escRel[i])
}

// N returns the number of nodes.
func (z *Compact) N() int { return len(z.rel) - 1 }

// M returns the number of directed edges.
func (z *Compact) M() int { return len(z.deltas) }

// OutDegree returns the out-degree of u — identical to the source
// CSR's.
func (z *Compact) OutDegree(u int) int { return z.off(u+1) - z.off(u) }

// RowStart returns the flat edge index where u's row begins, in the
// same edge numbering as the source CSR (one slot per target), so
// per-edge side tables carry over unchanged.
func (z *Compact) RowStart(u int) int { return z.off(u) }

// Bytes returns the total byte footprint of the encoded adjacency.
func (z *Compact) Bytes() int64 {
	return int64(len(z.base))*4 + int64(len(z.rel))*2 + int64(len(z.deltas))*2 +
		int64(len(z.escBase))*4 + int64(len(z.escRel))*2 + int64(len(z.escapes))*4
}

// AppendOut decodes u's full row into buf (reset to length 0 first)
// and returns it. Decoding walks the row's delta slots with a running
// previous target (initialised to u) and a cursor into the row's escape
// list: an escape slot takes the next absolute target, the first slot
// is unzigzag(t0 − u) from u, and every other slot is the gap from the
// previous target.
func (z *Compact) AppendOut(u int, buf []int32) []int32 {
	buf = buf[:0]
	escapes := z.escapes[z.escoff(u):z.escoff(u+1)]
	prev := int32(u)
	for i, dv := range z.deltas[z.off(u):z.off(u+1)] {
		var t int32
		switch {
		case dv == escapeSentinel:
			t = escapes[0]
			escapes = escapes[1:]
		case i == 0:
			t = int32(u) + unzigzag(uint32(dv))
		default:
			t = prev + int32(dv)
		}
		buf = append(buf, t)
		prev = t
	}
	return buf
}
