package store

import (
	"context"
	"fmt"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/overlaynet"
	"smallworld/xrand"
)

// TestReadRepairFixesDamagedCopies damages copies behind the store's
// back — one holder's copy dropped, or set to an older version — and
// checks that Scan and then Get return each key's newest version and
// repair exactly the damaged copies. Handover leaves no such damage,
// so the golden traces never take the read-repair path.
func TestReadRepairFixesDamagedCopies(t *testing.T) {
	dyn, err := overlaynet.NewIncremental(context.Background(), "smallworld-skewed",
		overlaynet.Options{N: 64, Seed: 12, Dist: dist.NewPower(0.7), Topology: keyspace.Ring})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := overlaynet.NewPublisher(dyn, overlaynet.PublishEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(pub, Config{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(5)
	want := make(map[keyspace.Key]entry)
	var keys []keyspace.Key
	for i := 0; i < 400; i++ {
		k := keyspace.Key(r.Float64())
		val := []byte(fmt.Sprint(i))
		want[k] = entry{val: val, stamp: st.Put(r.Intn(pub.LiveN()), k, val).Stamp}
		keys = append(keys, k)
	}
	damage := func() int {
		damaged := 0
		for i, k := range keys {
			p, _ := st.recs.search(k)
			_, rec := st.recs.at(p)
			j := r.Intn(len(*rec))
			switch i % 4 {
			case 0:
				h := (*rec)[j].holder
				*rec = append((*rec)[:j], (*rec)[j+1:]...)
				*st.held[h] = removeKey(*st.held[h], k)
			case 1:
				(*rec)[j].entry = entry{val: []byte("old"), stamp: Stamp{}}
			default:
				continue
			}
			damaged++
		}
		return damaged
	}
	check := func(op string, k keyspace.Key, val []byte, stamp Stamp) {
		t.Helper()
		if w := want[k]; stamp != w.stamp || string(val) != string(w.val) {
			t.Fatalf("%s %v: %q at %v, want the put's %q at %v", op, k, val, stamp, w.val, w.stamp)
		}
	}

	damaged := damage()
	if b := st.Backlog(); b != damaged {
		t.Fatalf("backlog %d after damaging %d copies", b, damaged)
	}
	repaired := 0
	for _, iv := range []keyspace.Interval{{Lo: 0, Hi: 0.5}, {Lo: 0.5, Hi: 0}} {
		res := st.Scan(0, iv)
		for _, kv := range res.KVs {
			check("scan", kv.Key, kv.Val, kv.Stamp)
		}
		repaired += res.Repaired
	}
	if repaired != damaged || st.Stats().ReadRepairs != int64(damaged) || st.Backlog() != 0 {
		t.Fatalf("scans repaired %d of %d damaged copies (stats %d), backlog %d after",
			repaired, damaged, st.Stats().ReadRepairs, st.Backlog())
	}

	damaged = damage()
	repaired = 0
	for _, k := range keys {
		res := st.Get(r.Intn(pub.LiveN()), k)
		check("get", k, res.Val, res.Stamp)
		repaired += res.Repaired
	}
	if repaired != damaged || st.Backlog() != 0 {
		t.Fatalf("gets repaired %d of %d damaged copies, backlog %d after", repaired, damaged, st.Backlog())
	}
}
