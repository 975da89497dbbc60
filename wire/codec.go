package wire

import "math"

// Frame is the unit of transmission: a typed, addressed, correlated
// payload. From/To are transport addresses; Corr ties a response to
// the request that caused it across any number of cross-shard
// forwards. Payload is opaque to the codec.
type Frame struct {
	Type    uint8
	From    Addr
	To      Addr
	Corr    uint64
	Payload []byte
}

// frameVersion is the first byte of every encoded frame; bumping it is
// how an incompatible header change stays detectable across a real
// network.
const frameVersion = 0x01

// HeaderLen is the fixed encoded header size preceding the payload.
const HeaderLen = 1 + 1 + 4 + 4 + 8 + 4

// AppendFrame appends f's encoding to dst and returns the extended
// slice. Layout, little-endian: version u8, type u8, from u32, to u32,
// corr u64, payload length u32, payload bytes.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = append(dst, frameVersion, f.Type)
	dst = AppendU32(dst, uint32(f.From))
	dst = AppendU32(dst, uint32(f.To))
	dst = AppendU64(dst, f.Corr)
	dst = AppendU32(dst, uint32(len(f.Payload)))
	return append(dst, f.Payload...)
}

// ParseFrame decodes the first frame in b. It returns the frame, the
// total bytes consumed (header + payload), and an error for a short
// buffer or unknown version. The returned Payload aliases b — copy it
// to retain past the buffer's lifetime. Trailing bytes after the
// frame are untouched, so a stream consumer loops ParseFrame over its
// read buffer, advancing by n each time.
func ParseFrame(b []byte) (f Frame, n int, err error) {
	if len(b) < HeaderLen {
		return Frame{}, 0, ErrTruncated
	}
	if b[0] != frameVersion {
		return Frame{}, 0, ErrVersion
	}
	f.Type = b[1]
	f.From = Addr(leU32(b[2:]))
	f.To = Addr(leU32(b[6:]))
	f.Corr = leU64(b[10:])
	// Compare the length prefix with the bytes left rather than adding
	// it to HeaderLen first: where int is 32 bits, a prefix near 2^31
	// wraps that sum negative.
	plen := int(leU32(b[18:]))
	if plen < 0 || plen > len(b)-HeaderLen {
		return Frame{}, 0, ErrTruncated
	}
	n = HeaderLen + plen
	f.Payload = b[HeaderLen:n:n]
	return f, n, nil
}

// AppendU8 appends one byte.
func AppendU8(dst []byte, v uint8) []byte { return append(dst, v) }

// AppendU32 appends v little-endian.
func AppendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// AppendU64 appends v little-endian.
func AppendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendF64 appends v's IEEE-754 bit pattern — exact, so a float
// carried across the wire compares bit-identical to the value the
// sender held. The sharded router depends on this for its
// bit-identity contract (greedy distances travel between shards).
func AppendF64(dst []byte, v float64) []byte {
	return AppendU64(dst, math.Float64bits(v))
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func leU64(b []byte) uint64 {
	return uint64(leU32(b)) | uint64(leU32(b[4:]))<<32
}

// Reader decodes a payload built with the Append helpers. Reads past
// the end set a sticky error and return zero values, so decode loops
// check Err once at the end instead of per field.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a payload for decoding.
func NewReader(b []byte) Reader { return Reader{b: b} }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := leU32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := leU64(r.b[r.off:])
	r.off += 8
	return v
}

// F64 reads an IEEE-754 bit pattern written by AppendF64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Err returns the sticky decode error, nil when every read fit.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}
