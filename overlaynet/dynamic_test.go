package overlaynet_test

import (
	"context"
	"reflect"
	"testing"

	"smallworld/dist"
	"smallworld/overlaynet"
)

func TestRebuildJoinLeave(t *testing.T) {
	ctx := context.Background()
	dyn, err := overlaynet.NewRebuild(ctx, "chord", overlaynet.Options{N: 32, Seed: 1})
	if err != nil {
		t.Fatalf("NewRebuild: %v", err)
	}
	if dyn.Kind() != "rebuild:chord" {
		t.Errorf("Kind = %q", dyn.Kind())
	}
	if err := dyn.Join(ctx); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if dyn.N() != 33 {
		t.Errorf("after join N = %d, want 33", dyn.N())
	}
	if err := dyn.Leave(ctx, 5); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if dyn.N() != 32 {
		t.Errorf("after leave N = %d, want 32", dyn.N())
	}
	if err := dyn.Leave(ctx, 99); err == nil {
		t.Error("leave of out-of-range node should error")
	}
	// The rebuilt overlay must still route.
	qr := overlaynet.NewQueryRunner(dyn)
	batch, err := qr.Run(ctx, overlaynet.RandomPairs(dyn, 2, 200))
	if err != nil {
		t.Fatalf("query run: %v", err)
	}
	if batch.Arrived < 190 {
		t.Errorf("only %d/200 queries arrived after rebuilds", batch.Arrived)
	}
}

func TestRebuildDeterministic(t *testing.T) {
	ctx := context.Background()
	build := func() []float64 {
		dyn, err := overlaynet.NewRebuild(ctx, "smallworld-skewed", overlaynet.Options{
			N: 32, Seed: 3, Dist: dist.NewPower(0.7),
		})
		if err != nil {
			t.Fatalf("NewRebuild: %v", err)
		}
		for i := 0; i < 4; i++ {
			if err := dyn.Join(ctx); err != nil {
				t.Fatalf("Join: %v", err)
			}
		}
		if err := dyn.Leave(ctx, 0); err != nil {
			t.Fatalf("Leave: %v", err)
		}
		keys := dyn.Keys()
		out := make([]float64, len(keys))
		for i, k := range keys {
			out[i] = float64(k)
		}
		return out
	}
	if a, b := build(), build(); !reflect.DeepEqual(a, b) {
		t.Fatal("identical op sequences produced different key sets")
	}
}

func TestRebuildRejectsUnknownTopology(t *testing.T) {
	if _, err := overlaynet.NewRebuild(context.Background(), "no-such", overlaynet.Options{N: 8}); err == nil {
		t.Fatal("unknown topology should error")
	}
}

func TestProtocolMessengerMaintainer(t *testing.T) {
	ctx := context.Background()
	ov, err := overlaynet.Build(ctx, "protocol", overlaynet.Options{N: 32, Seed: 5})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	msgr, ok := ov.(overlaynet.Messenger)
	if !ok {
		t.Fatal("protocol overlay should implement Messenger")
	}
	// The initial overlay is the offline constructor's: no protocol
	// messages were sent to build it.
	total0, maint0 := msgr.Messages()
	if total0 != 0 || maint0 != 0 {
		t.Errorf("Messages() = (%d, %d) at build, want (0, 0)", total0, maint0)
	}

	// A lookup adds total-only traffic.
	r := ov.NewRouter()
	r.Route(0, 0.5)
	total1, maint1 := msgr.Messages()
	if total1 <= total0 {
		t.Error("lookup consumed no metered hops")
	}
	if maint1 != maint0 {
		t.Errorf("lookup changed maintenance counter: %d -> %d", maint0, maint1)
	}

	mnt, ok := ov.(overlaynet.Maintainer)
	if !ok {
		t.Fatal("protocol overlay should implement Maintainer")
	}
	if err := mnt.Maintain(ctx); err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	_, maint2 := msgr.Messages()
	if maint2 <= maint1 {
		t.Error("maintenance round consumed no maintenance hops")
	}
}
