package wire

import (
	"sync"
	"testing"
)

// BenchmarkWireSend measures one round of the serving plane's message
// discipline: encode a query-sized frame into a reused buffer, Send it
// through the channel transport, and have the handler decode it. The
// pooled delivery buffers keep the steady state allocation-free; the
// wait group models the request/response rendezvous a client pays.
func BenchmarkWireSend(b *testing.B) {
	tr := NewChan()
	defer tr.Close()
	var wg sync.WaitGroup
	if err := tr.Listen(1, func(frame []byte) {
		f, _, err := ParseFrame(frame)
		if err == nil {
			rd := NewReader(f.Payload)
			_ = rd.U32()
			_ = rd.F64()
		}
		wg.Done()
	}); err != nil {
		b.Fatal(err)
	}
	payBuf := make([]byte, 0, 16)
	frameBuf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := AppendF64(AppendU32(payBuf[:0], uint32(i)), 0.5)
		frame := AppendFrame(frameBuf[:0], Frame{Type: 1, From: 0, To: 1, Corr: uint64(i), Payload: payload})
		wg.Add(1)
		if err := tr.Send(1, frame); err != nil {
			b.Fatal(err)
		}
		wg.Wait()
	}
}

// BenchmarkWireEncode isolates the codec: append + parse of one
// query-sized frame, no transport.
func BenchmarkWireEncode(b *testing.B) {
	buf := make([]byte, 0, 64)
	payload := AppendF64(AppendU32(nil, 7), 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], Frame{Type: 1, From: 2, To: 3, Corr: uint64(i), Payload: payload})
		if _, _, err := ParseFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameCodecZeroAlloc turns BenchmarkWireEncode's 0 allocs/op into
// a check, for a query frame decoded to its fields: after a warm-up
// batch, appending the payload and the frame into reused buffers,
// ParseFrame and the payload Reader allocate nothing.
func TestFrameCodecZeroAlloc(t *testing.T) {
	payBuf := make([]byte, 0, 16)
	frameBuf := make([]byte, 0, 64)
	batch := func() {
		for i := 0; i < 1024; i++ {
			payload := AppendF64(AppendU32(payBuf[:0], uint32(i)), 0.5)
			frameBuf = AppendFrame(frameBuf[:0], Frame{Type: 1, From: 2, To: 3, Corr: uint64(i), Payload: payload})
			f, _, err := ParseFrame(frameBuf)
			rd := NewReader(f.Payload)
			if err != nil || rd.U32() != uint32(i) || rd.F64() != 0.5 || rd.Err() != nil {
				t.Fatalf("frame %d did not round-trip: %v", i, err)
			}
		}
	}
	batch()
	// AllocsPerRun truncates the per-run mean, so each run codes the
	// whole batch: one allocation anywhere in it fails.
	if allocs := testing.AllocsPerRun(4, batch); allocs != 0 {
		t.Errorf("%v allocations per 1024 frames, want 0", allocs)
	}
}
