package overlaynet

import (
	"context"
	"fmt"

	"smallworld"
	"smallworld/keyspace"
	"smallworld/xrand"
)

func init() {
	Register(Info{
		Name:        "smallworld-uniform",
		Description: "Model 1: geometric-distance harmonic links, log2 N outdegree (the paper, Section 3)",
		Build: func(ctx context.Context, opts Options) (Overlay, error) {
			return buildSmallWorld(ctx, "smallworld-uniform", smallworld.Geometric, opts, 0)
		},
	})
	Register(Info{
		Name:        "smallworld-skewed",
		Description: "Model 2: probability-mass harmonic links, skew-adapted, log2 N outdegree (the paper, Section 4)",
		Build: func(ctx context.Context, opts Options) (Overlay, error) {
			return buildSmallWorld(ctx, "smallworld-skewed", smallworld.Mass, opts, 0)
		},
	})
	Register(Info{
		Name:        "kleinberg",
		Description: "classic Kleinberg construction: constant outdegree, selection weight 1/d^r",
		Build: func(ctx context.Context, opts Options) (Overlay, error) {
			degree := opts.Degree
			if degree == 0 {
				degree = 4
			}
			return buildSmallWorld(ctx, "kleinberg", smallworld.Geometric, opts, degree)
		},
	})
}

// buildSmallWorld maps Options onto smallworld.Config. constDegree > 0
// forces a constant outdegree (the Kleinberg setting); otherwise
// opts.Degree chooses between the log2 N default and a constant.
func buildSmallWorld(ctx context.Context, kind string, measure smallworld.Measure, opts Options, constDegree int) (Overlay, error) {
	cfg := smallworld.Config{
		N:        opts.N,
		Topology: opts.Topology,
		Dist:     opts.dist(),
		Measure:  measure,
		Exponent: opts.Exponent,
		Seed:     opts.Seed,
	}
	switch opts.Sampler {
	case "", "protocol":
		cfg.Sampler = smallworld.Protocol
	case "exact":
		cfg.Sampler = smallworld.Exact
	default:
		return nil, fmt.Errorf("overlaynet: unknown sampler %q (want protocol or exact)", opts.Sampler)
	}
	switch {
	case constDegree > 0:
		cfg.Degree = smallworld.ConstDegree(constDegree)
	case opts.Degree > 0:
		cfg.Degree = smallworld.ConstDegree(opts.Degree)
	}
	nw, err := smallworld.BuildContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &swOverlay{kind: kind, nw: nw}, nil
}

// swOverlay adapts *smallworld.Network.
type swOverlay struct {
	kind string
	nw   *smallworld.Network
}

// WrapNetwork adapts an already-built small-world network to the
// Overlay contract, so code holding a *smallworld.Network (the
// experiment harness, tests) can feed it to a QueryRunner. The kind is
// derived from the network's measure.
func WrapNetwork(nw *smallworld.Network) Overlay {
	kind := "smallworld-uniform"
	if nw.Config().Measure == smallworld.Mass {
		kind = "smallworld-skewed"
	}
	return &swOverlay{kind: kind, nw: nw}
}

func (o *swOverlay) Kind() string { return o.kind }

// Topology returns the key-space geometry the network was built with.
func (o *swOverlay) Topology() keyspace.Topology { return o.nw.Config().Topology }
func (o *swOverlay) N() int                      { return o.nw.N() }
func (o *swOverlay) Key(u int) keyspace.Key      { return o.nw.Key(u) }
func (o *swOverlay) Keys() []keyspace.Key        { return o.nw.Keys() }
func (o *swOverlay) Neighbors(u int) []int32     { return o.nw.CSR().Out(u) }
func (o *swOverlay) Stats() Stats                { return statsOf(o) }

// Network exposes the underlying small-world network for callers that
// need its richer analysis surface (partition histograms, range
// queries); cmd/swsim type-asserts for it.
func (o *swOverlay) Network() *smallworld.Network { return o.nw }

// FailLinks implements FaultInjector via the network's link-failure
// derivation (neighbouring edges always survive).
func (o *swOverlay) FailLinks(seed uint64, frac float64) (Overlay, error) {
	if !(frac >= 0 && frac <= 1) {
		return nil, fmt.Errorf("overlaynet: link failure fraction %v outside [0, 1]", frac)
	}
	derived := o.nw.WithFailedLinks(xrand.New(seed), frac)
	return &swOverlay{kind: o.kind, nw: derived}, nil
}

type swRouter struct {
	r *smallworld.Router
}

func (o *swOverlay) NewRouter() Router {
	return swRouter{r: o.nw.NewRouter()}
}

func (r swRouter) Route(src int, target keyspace.Key) Result {
	rt := r.r.RouteGreedy(src, target)
	return Result{
		Hops:    rt.Hops(),
		Dest:    rt.Path[len(rt.Path)-1],
		Arrived: rt.Arrived,
	}
}
