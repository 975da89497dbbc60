package wire

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/xrand"
)

// TestFrameRoundTrip pins the codec: every frame round-trips exactly,
// including float payloads bit for bit.
func TestFrameRoundTrip(t *testing.T) {
	rng := xrand.New(7)
	for i := 0; i < 2000; i++ {
		payload := AppendU32(nil, uint32(rng.Uint64()))
		payload = AppendU8(payload, uint8(uint32(rng.Uint64())))
		payload = AppendF64(payload, rng.Float64())
		payload = AppendU64(payload, rng.Uint64())
		f := Frame{
			Type: uint8(uint32(rng.Uint64())), From: Addr(uint32(rng.Uint64())), To: Addr(uint32(rng.Uint64())),
			Corr: rng.Uint64(), Payload: payload,
		}
		enc := AppendFrame(nil, f)
		got, n, err := ParseFrame(enc)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d bytes", n, len(enc))
		}
		if got.Type != f.Type || got.From != f.From || got.To != f.To || got.Corr != f.Corr ||
			!bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, got, f)
		}
	}
}

// TestFrameStreamSplit pins the drop-in-stream-transport property: a
// buffer holding several concatenated frames splits back into exactly
// those frames by walking ParseFrame's consumed-byte count, and a
// truncated tail is reported rather than misparsed.
func TestFrameStreamSplit(t *testing.T) {
	rng := xrand.New(11)
	var stream []byte
	var want []Frame
	for i := 0; i < 64; i++ {
		payload := make([]byte, rng.Intn(40))
		for j := range payload {
			payload[j] = byte(uint32(rng.Uint64()))
		}
		f := Frame{Type: uint8(i), From: Addr(i), To: Addr(i + 1), Corr: uint64(i) << 32, Payload: payload}
		want = append(want, f)
		stream = AppendFrame(stream, f)
	}
	rest := stream
	for i, f := range want {
		got, n, err := ParseFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != f.Type || got.Corr != f.Corr || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("frame %d mismatch", i)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	// Every strict prefix of a frame is ErrTruncated, never a misparse.
	one := AppendFrame(nil, want[0])
	for cut := 0; cut < len(one); cut++ {
		if _, _, err := ParseFrame(one[:cut]); err != ErrTruncated {
			t.Fatalf("prefix %d: got %v, want ErrTruncated", cut, err)
		}
	}
	bad := append([]byte(nil), one...)
	bad[0] = 0x7f
	if _, _, err := ParseFrame(bad); err != ErrVersion {
		t.Fatalf("bad version: got %v", err)
	}
}

// TestParseFrameHugeLengthPrefix: a header whose length prefix claims
// far more payload than the buffer holds is ErrTruncated, including
// prefixes near 2^31 and 2^32, which overflow a 32-bit int when added
// to HeaderLen (GOARCH=386 runs this in CI).
func TestParseFrameHugeLengthPrefix(t *testing.T) {
	for _, plen := range []uint32{0x7fffffff, 0x7fffffff - HeaderLen + 1, 0x80000000, 0xffffffff} {
		b := AppendFrame(nil, Frame{Type: 3, From: 1, To: 2, Corr: 9, Payload: []byte{1, 2, 3}})
		copy(b[18:], AppendU32(nil, plen))
		if _, n, err := ParseFrame(b); err != ErrTruncated || n != 0 {
			t.Fatalf("length prefix %#x: n=%d err=%v, want ErrTruncated", plen, n, err)
		}
	}
}

// FuzzParseFrame checks the frame decoder on arbitrary bytes: it never
// panics, a parsed frame consumes 0 < n <= len(b) bytes, and
// re-encoding it through AppendFrame reproduces b[:n] byte for byte.
// The seed corpus in testdata/fuzz/FuzzParseFrame holds a valid frame,
// a short header, a bad version and a length prefix that overflows a
// 32-bit int.
func FuzzParseFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := ParseFrame(b)
		if err != nil {
			if err != ErrTruncated && err != ErrVersion {
				t.Fatalf("unexpected error %v", err)
			}
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if enc := AppendFrame(nil, fr); !bytes.Equal(enc, b[:n]) {
			t.Fatalf("re-encoded %x, parsed from %x", enc, b[:n])
		}
	})
}

// TestReaderSticky pins the sticky-error decode contract.
func TestReaderSticky(t *testing.T) {
	p := AppendU32(nil, 42)
	r := NewReader(p)
	if got := r.U32(); got != 42 || r.Err() != nil {
		t.Fatalf("U32 = %d, err %v", got, r.Err())
	}
	if got := r.U64(); got != 0 {
		t.Fatalf("past-end U64 = %d, want 0", got)
	}
	if r.Err() != ErrTruncated {
		t.Fatalf("err = %v", r.Err())
	}
	if got := r.U8(); got != 0 { // sticky: still zero
		t.Fatalf("sticky U8 = %d", got)
	}
	if f := math.Float64bits(r.F64()); f != 0 {
		t.Fatalf("sticky F64 bits = %x", f)
	}
}

// TestChanTransportDelivery pins ordered delivery, per-endpoint
// serialisation, and handler-initiated sends (the forwarding chain the
// shard plane runs on: a handler Sends back to its own sender).
func TestChanTransportDelivery(t *testing.T) {
	tr := NewChan()
	defer tr.Close()

	var mu sync.Mutex
	var got []uint64
	done := make(chan struct{})
	// Endpoint 1 echoes each frame back to endpoint 0 with corr+1000.
	if err := tr.Listen(1, func(frame []byte) {
		f, _, err := ParseFrame(frame)
		if err != nil {
			t.Errorf("ep1 parse: %v", err)
			return
		}
		out := AppendFrame(nil, Frame{Type: 2, From: 1, To: f.From, Corr: f.Corr + 1000})
		if err := tr.Send(f.From, out); err != nil {
			t.Errorf("echo send: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	const msgs = 200
	if err := tr.Listen(0, func(frame []byte) {
		f, _, err := ParseFrame(frame)
		if err != nil {
			t.Errorf("ep0 parse: %v", err)
			return
		}
		mu.Lock()
		got = append(got, f.Corr)
		if len(got) == msgs {
			close(done)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Listen(0, func([]byte) {}); err != ErrBound {
		t.Fatalf("double listen: got %v", err)
	}

	buf := make([]byte, 0, 64)
	for i := 0; i < msgs; i++ {
		buf = AppendFrame(buf[:0], Frame{Type: 1, From: 0, To: 1, Corr: uint64(i)})
		if err := tr.Send(1, buf); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	for i, c := range got {
		if c != uint64(i)+1000 {
			t.Fatalf("reply %d: corr %d, want %d (order violated)", i, c, i+1000)
		}
	}
	sends, bytes := tr.Stats()
	if sends != 2*msgs || bytes == 0 {
		t.Fatalf("stats: %d sends (%d bytes), want %d", sends, bytes, 2*msgs)
	}
	if err := tr.Send(99, buf); err != ErrNoRoute {
		t.Fatalf("unknown dest: got %v", err)
	}
}

// TestChanTransportClose pins that Close drains queued frames, then
// rejects further sends.
func TestChanTransportClose(t *testing.T) {
	tr := NewChan()
	var mu sync.Mutex
	n := 0
	if err := tr.Listen(5, func([]byte) { mu.Lock(); n++; mu.Unlock() }); err != nil {
		t.Fatal(err)
	}
	frame := AppendFrame(nil, Frame{Type: 1, To: 5})
	for i := 0; i < 50; i++ {
		if err := tr.Send(5, frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if n != 50 {
		t.Fatalf("delivered %d of 50 before close returned", n)
	}
	mu.Unlock()
	if err := tr.Send(5, frame); err != ErrClosed {
		t.Fatalf("send after close: got %v", err)
	}
	if err := tr.Listen(6, func([]byte) {}); err != ErrClosed {
		t.Fatalf("listen after close: got %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestFaultTransport pins the fault decorator: with total loss nothing
// arrives, with a clean plane everything does, and drops are counted.
func TestFaultTransport(t *testing.T) {
	build := func(loss float64) (*FaultTransport, *int, func()) {
		inner := NewChan()
		model, err := netmodel.New(netmodel.Config{Loss: loss}, 3)
		if err != nil {
			t.Fatal(err)
		}
		ft := NewFault(inner, model, func(a Addr) keyspace.Key {
			return keyspace.Key(float64(a) / 16)
		})
		n := new(int)
		var mu sync.Mutex
		if err := ft.Listen(2, func([]byte) { mu.Lock(); *n++; mu.Unlock() }); err != nil {
			t.Fatal(err)
		}
		return ft, n, func() { ft.Close() }
	}

	ft, n, closeFT := build(1.0)
	frame := AppendFrame(nil, Frame{Type: 1, From: 1, To: 2})
	for i := 0; i < 40; i++ {
		if err := ft.Send(2, frame); err != nil {
			t.Fatal(err)
		}
	}
	closeFT()
	if *n != 0 {
		t.Fatalf("total loss: %d of 40 delivered", *n)
	}

	ft, n, closeFT = build(0)
	for i := 0; i < 40; i++ {
		if err := ft.Send(2, frame); err != nil {
			t.Fatal(err)
		}
	}
	closeFT()
	if *n != 40 {
		t.Fatalf("clean plane: %d of 40 delivered", *n)
	}
}
