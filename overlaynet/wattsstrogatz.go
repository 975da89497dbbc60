package overlaynet

import (
	"context"
	"math"

	"smallworld/internal/wattsstrogatz"
	"smallworld/keyspace"
)

func init() {
	Register(Info{
		Name:        "wattsstrogatz",
		Description: "Watts–Strogatz rewired ring lattice: structurally small-world, greedy-unroutable (Background §2)",
		Build: func(ctx context.Context, opts Options) (Overlay, error) {
			k := opts.Degree
			if k == 0 {
				k = 8
			}
			// Rewiring probability 0.1: the classic small-world regime.
			nw, err := wattsstrogatz.Build(wattsstrogatz.Config{
				N: opts.N, K: k, P: 0.1, Seed: opts.Seed,
			})
			if err != nil {
				return nil, err
			}
			o := &wsOverlay{nw: nw, keys: make([]keyspace.Key, opts.N)}
			for u := range o.keys {
				o.keys[u] = nw.Key(u)
			}
			return o, nil
		},
	})
}

// wsOverlay adapts the Watts–Strogatz graph: node u sits at ring
// position u/N, and a routing target resolves to the node nearest that
// position.
type wsOverlay struct {
	nw   *wattsstrogatz.Network
	keys []keyspace.Key
}

func (o *wsOverlay) Kind() string            { return "wattsstrogatz" }
func (o *wsOverlay) N() int                  { return o.nw.N() }
func (o *wsOverlay) Key(u int) keyspace.Key  { return o.keys[u] }
func (o *wsOverlay) Keys() []keyspace.Key    { return o.keys }
func (o *wsOverlay) Neighbors(u int) []int32 { return o.nw.CSR().Out(u) }
func (o *wsOverlay) Stats() Stats            { return statsOf(o) }

type wsRouter struct {
	o *wsOverlay
}

func (o *wsOverlay) NewRouter() Router { return wsRouter{o: o} }

func (r wsRouter) Route(src int, target keyspace.Key) Result {
	// Evenly spaced positions i/N: the nearest node is round(target·N).
	n := r.o.nw.N()
	dst := int(math.Round(float64(target)*float64(n))) % n
	hops, last, arrived := r.o.nw.Route(src, dst)
	return Result{Hops: hops, Dest: last, Arrived: arrived}
}
