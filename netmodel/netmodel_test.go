package netmodel

import (
	"math"
	"testing"

	"smallworld/keyspace"
	"smallworld/xrand"
)

func testKeys(n int, seed uint64) []keyspace.Key {
	r := xrand.New(seed)
	ks := make([]keyspace.Key, n)
	for i := range ks {
		ks[i] = keyspace.Key(r.Float64())
	}
	return ks
}

func TestClassFractions(t *testing.T) {
	m, err := New(Config{DeadFrac: 0.1, SlowFrac: 0.2, ByzantineFrac: 0.05}, 7)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(20000, 3)
	var dead, slow, byz int
	for _, k := range keys {
		if m.Dead(k) {
			dead++
		}
		if m.Slow(k) {
			slow++
		}
		if m.Byzantine(k) {
			byz++
		}
	}
	n := float64(len(keys))
	for _, c := range []struct {
		name string
		got  float64
		want float64
	}{
		{"dead", float64(dead) / n, 0.1},
		{"slow", float64(slow) / n, 0.2},
		{"byzantine", float64(byz) / n, 0.05},
	} {
		if math.Abs(c.got-c.want) > 0.02 {
			t.Errorf("%s fraction = %.3f, want ~%.2f", c.name, c.got, c.want)
		}
	}
}

func TestClassesAreIdentifierKeyed(t *testing.T) {
	m1, _ := New(Config{DeadFrac: 0.3}, 11)
	m2, _ := New(Config{DeadFrac: 0.3}, 11)
	m3, _ := New(Config{DeadFrac: 0.3}, 12)
	keys := testKeys(1000, 5)
	same, diff := true, false
	for _, k := range keys {
		if m1.Dead(k) != m2.Dead(k) {
			same = false
		}
		if m1.Dead(k) != m3.Dead(k) {
			diff = true
		}
	}
	if !same {
		t.Error("same seed disagrees on dead set")
	}
	if !diff {
		t.Error("different seeds agree on entire dead set")
	}
}

func TestSendDeterminism(t *testing.T) {
	cfg := Config{Loss: 0.1, SlowFrac: 0.2, ByzantineFrac: 0.1}
	keys := testKeys(64, 9)
	run := func() []Delivery {
		m, err := New(cfg, 21)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Delivery, 0, 4096)
		for i := 0; i < 4096; i++ {
			out = append(out, m.Send(keys[i%len(keys)], keys[(i*7+3)%len(keys)]))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestLossRate(t *testing.T) {
	m, _ := New(Config{Loss: 0.05}, 3)
	keys := testKeys(128, 1)
	lost, total := 0, 50000
	for i := 0; i < total; i++ {
		d := m.Send(keys[i%len(keys)], keys[(i+1)%len(keys)])
		if d.Status == SendLost {
			lost++
		}
		if d.Status == SendOK && d.Latency <= 0 {
			t.Fatalf("delivered message with non-positive latency %v", d.Latency)
		}
	}
	if got := float64(lost) / float64(total); math.Abs(got-0.05) > 0.01 {
		t.Errorf("loss rate %.4f, want ~0.05", got)
	}
}

func TestDeadEndpointsUnreachable(t *testing.T) {
	m, _ := New(Config{DeadFrac: 0.3}, 17)
	keys := testKeys(2000, 8)
	var deadKey, liveKey keyspace.Key
	foundDead, foundLive := false, false
	for _, k := range keys {
		if m.Dead(k) && !foundDead {
			deadKey, foundDead = k, true
		}
		if !m.Dead(k) && !foundLive {
			liveKey, foundLive = k, true
		}
	}
	if !foundDead || !foundLive {
		t.Fatal("could not find both a dead and a live key")
	}
	if d := m.Send(liveKey, deadKey); d.Status != SendUnreachable {
		t.Errorf("send to dead node: %v, want unreachable", d.Status)
	}
	if d := m.Send(deadKey, liveKey); d.Status != SendUnreachable {
		t.Errorf("send from dead node: %v, want unreachable", d.Status)
	}
	if !m.Unreachable(liveKey, deadKey) {
		t.Error("Unreachable(live, dead) = false")
	}
}

func TestSlowNodesInflateLatency(t *testing.T) {
	m, _ := New(Config{SlowFrac: 0.5, SlowFactor: 10}, 23)
	keys := testKeys(4000, 4)
	var slowSum, fastSum float64
	var slowN, fastN int
	for i := 0; i+1 < len(keys); i += 2 {
		from, to := keys[i], keys[i+1]
		d := m.Send(from, to)
		if d.Status != SendOK {
			continue
		}
		if m.Slow(from) || m.Slow(to) {
			slowSum += d.Latency
			slowN++
		} else {
			fastSum += d.Latency
			fastN++
		}
	}
	if slowN == 0 || fastN == 0 {
		t.Fatal("no samples in one class")
	}
	if ratio := (slowSum / float64(slowN)) / (fastSum / float64(fastN)); ratio < 5 {
		t.Errorf("slow/fast mean latency ratio %.2f, want >= 5 at factor 10", ratio)
	}
}

func TestPartitionKeySpaceCut(t *testing.T) {
	m, _ := New(Config{}, 31)
	if err := m.SetPartition(Partition{Cuts: []float64{0.25, 0.75}}); err != nil {
		t.Fatal(err)
	}
	inner, outerLow, outerHigh := keyspace.Key(0.5), keyspace.Key(0.1), keyspace.Key(0.9)
	if c := m.Component(inner); c != 1 {
		t.Errorf("component(0.5) = %d, want 1", c)
	}
	if m.Component(outerLow) != 0 || m.Component(outerHigh) != 0 {
		t.Errorf("wrap segment split: comp(0.1)=%d comp(0.9)=%d, want 0 and 0",
			m.Component(outerLow), m.Component(outerHigh))
	}
	if d := m.Send(inner, outerLow); d.Status != SendUnreachable {
		t.Errorf("cross-partition send: %v, want unreachable", d.Status)
	}
	if d := m.Send(outerLow, outerHigh); d.Status != SendOK && d.Status != SendLost {
		t.Errorf("same-component send: %v, want ok or lost", d.Status)
	}

	epoch := m.FaultEpoch()
	m.Heal()
	if m.Partitioned() {
		t.Error("still partitioned after Heal")
	}
	if m.FaultEpoch() <= epoch {
		t.Error("fault epoch did not advance on heal")
	}
	if d := m.Send(inner, outerLow); d.Status == SendUnreachable {
		t.Error("send still unreachable after heal")
	}
}

func TestPartitionNodeSet(t *testing.T) {
	m, _ := New(Config{}, 41)
	if err := m.SetPartition(Partition{Frac: 0.3, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	keys := testKeys(10000, 6)
	minority := 0
	for _, k := range keys {
		if m.Component(k) == 1 {
			minority++
		}
	}
	if got := float64(minority) / float64(len(keys)); math.Abs(got-0.3) > 0.02 {
		t.Errorf("minority fraction %.3f, want ~0.3", got)
	}
}

func TestPartitionValidation(t *testing.T) {
	m, _ := New(Config{}, 1)
	for _, p := range []Partition{
		{},
		{Cuts: []float64{0.5}},
		{Cuts: []float64{0.5, 0.25}},
		{Cuts: []float64{0.2, 1.5}},
		{Frac: 1.5},
	} {
		if err := m.SetPartition(p); err == nil {
			t.Errorf("SetPartition(%+v) accepted, want error", p)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Loss: 1.5},
		{Loss: math.NaN()},
		{DeadFrac: -0.1},
		{SlowFactor: math.Inf(1)},
		{SlowFrac: 2},
	} {
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("New(%+v) accepted, want error", cfg)
		}
	}
}

func TestMisrouteOnlyByzantine(t *testing.T) {
	m, _ := New(Config{ByzantineFrac: 0.2}, 51)
	keys := testKeys(2000, 7)
	for _, k := range keys {
		if !m.Byzantine(k) && m.Misroute(k) {
			t.Fatal("honest node misrouted")
		}
	}
	hijacked := false
	for _, k := range keys {
		if m.Byzantine(k) && m.Misroute(k) {
			hijacked = true
			break
		}
	}
	if !hijacked {
		t.Error("no byzantine node ever misrouted")
	}
}
