package shard

import (
	"testing"

	"smallworld/keyspace"
	"smallworld/wire"
)

// recordingTransport delivers nothing: Listen accepts any handler and
// Send keeps a copy of every frame, so a test can call one endpoint's
// handler directly and read back exactly what it sent.
type recordingTransport struct {
	sent [][]byte
}

func (tr *recordingTransport) Listen(wire.Addr, wire.Handler) error { return nil }

func (tr *recordingTransport) Send(_ wire.Addr, frame []byte) error {
	tr.sent = append(tr.sent, append([]byte(nil), frame...))
	return nil
}

func (tr *recordingTransport) Close() error { return nil }

// Payload lengths of the protocol's fixed records (see the msg*
// constants): a shorter payload is truncated.
var payloadLen = map[uint8]int{msgQuery: 12, msgForward: 32, msgResult: 13}

// FuzzShardPayloads feeds arbitrary payloads under an arbitrary frame
// type to every server's and a client's handler of a four-shard cluster
// over a recording transport. Neither may panic. A server answers a
// full query or forward with exactly one frame and sends nothing for a
// truncated payload or another type; the client queues nothing for a
// truncated payload. Every frame a server sends parses in full, and any
// slot it names is in [-1, N).
//
// Seeds in testdata/fuzz/FuzzShardPayloads: a valid query, a valid
// forward, a truncated forward, a forward whose cur is N, a short
// result.
func FuzzShardPayloads(f *testing.F) {
	pub := newChurnPublisher(f, 64, keyspace.Ring, 5)
	tr := &recordingTransport{}
	cluster, err := New(pub, Config{Shards: 4, Transport: tr})
	if err != nil {
		f.Fatal(err)
	}
	cl, err := cluster.NewClient()
	if err != nil {
		f.Fatal(err)
	}
	n := cluster.Snapshot().N()

	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		frame := wire.AppendFrame(nil, wire.Frame{Type: typ, From: cl.addr, Corr: 9, Payload: payload})
		truncated := len(payload) < payloadLen[typ]
		for _, sv := range cluster.servers {
			tr.sent = tr.sent[:0]
			sv.handle(frame)
			want := 0
			if (typ == msgQuery || typ == msgForward) && !truncated {
				want = 1 // a result or a forward, never both
			}
			if len(tr.sent) != want {
				t.Fatalf("server %d sent %d frames for a %d-byte payload of type %d, want %d",
					sv.i, len(tr.sent), len(payload), typ, want)
			}
			for _, out := range tr.sent {
				checkServerFrame(t, out, n)
			}
		}
		cl.handle(frame)
		queued := len(cl.resp)
		for len(cl.resp) > 0 {
			<-cl.resp
		}
		if truncated && queued > 0 {
			t.Fatalf("client queued %d results for a truncated %d-byte payload of type %d", queued, len(payload), typ)
		}
	})
}

// checkServerFrame parses one frame a server sent: the whole buffer is
// one frame of a protocol type whose payload decodes, and the slot it
// names is in [-1, n).
func checkServerFrame(t *testing.T, out []byte, n int) {
	t.Helper()
	fr, used, err := wire.ParseFrame(out)
	if err != nil || used != len(out) {
		t.Fatalf("server sent an unparsable frame %x (used %d, err %v)", out, used, err)
	}
	rd := wire.NewReader(fr.Payload)
	var slot int
	switch fr.Type {
	case msgForward:
		rd.U32() // origin
		slot = int(int32(rd.U32()))
		rd.U32() // hops
		rd.U32() // crossings
		rd.F64() // dCur
		rd.F64() // target
	case msgResult:
		slot = int(int32(rd.U32()))
		rd.U32() // hops
		rd.U32() // crossings
		rd.U8()  // arrived
	default:
		t.Fatalf("server sent a frame of type %d", fr.Type)
	}
	if rd.Err() != nil || len(fr.Payload) != payloadLen[fr.Type] {
		t.Fatalf("server sent a %d-byte payload of type %d: %x", len(fr.Payload), fr.Type, fr.Payload)
	}
	if slot < -1 || slot >= n {
		t.Fatalf("server named slot %d of %d in a frame of type %d", slot, n, fr.Type)
	}
}
