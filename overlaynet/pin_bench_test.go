package overlaynet_test

import (
	"context"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/netmodel"
	"smallworld/overlaynet"
	"smallworld/xrand"
)

// BenchmarkPinEpoch measures what a robust router pays once an epoch to
// follow its publisher: Publisher.Snapshot plus RobustRouter.Rebind, at
// N=2^16 behind a netmodel plane with 5% dead nodes (robust-churn's
// setting; bench reports the same pair as overlaynet.pin_ns). Each
// iteration applies alternating joins and leaves outside the timer
// until the default PublishEvery publishes a new epoch, then times the
// pin of that epoch.
func BenchmarkPinEpoch(b *testing.B) {
	ctx := context.Background()
	const n = 1 << 16
	dyn, err := overlaynet.NewIncremental(ctx, "smallworld-skewed",
		overlaynet.Options{N: n, Seed: 1, Dist: dist.NewPower(0.7), Topology: keyspace.Ring})
	if err != nil {
		b.Fatal(err)
	}
	pub, err := overlaynet.NewPublisher(dyn)
	if err != nil {
		b.Fatal(err)
	}
	model, err := netmodel.New(netmodel.Config{Loss: 0.02, DeadFrac: 0.05}, 7)
	if err != nil {
		b.Fatal(err)
	}
	pub.SetFaultPlane(model)
	rr, err := overlaynet.NewRobustRouter(pub.Snapshot(), model, overlaynet.RobustPolicy{}, 9)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(11)
	pop := n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for epoch := pub.Epoch(); pub.Epoch() == epoch; {
			if pop == n {
				err = pub.Join(ctx)
				pop++
			} else {
				err = pub.Leave(ctx, rng.Intn(pop))
				pop--
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		rr.Rebind(pub.Snapshot())
	}
}
