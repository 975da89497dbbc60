package pgrid

import (
	"math"
	"testing"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/metrics"
	"smallworld/xrand"
)

func mustBuild(t *testing.T, cfg Config) *Network {
	t.Helper()
	nw, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return nw
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{N: 1}); err == nil {
		t.Error("N=1 should fail")
	}
}

func TestPathsAreLeafAddresses(t *testing.T) {
	nw := mustBuild(t, Config{N: 128, Seed: 1})
	// Paths must be unique and prefix-free (no path is a prefix of
	// another — each peer owns exactly one leaf).
	for u := 0; u < nw.N(); u++ {
		for v := u + 1; v < nw.N(); v++ {
			if hasPrefix(nw.paths[u], nw.paths[v]) || hasPrefix(nw.paths[v], nw.paths[u]) {
				t.Fatalf("paths of %d and %d are prefix-related", u, v)
			}
		}
	}
}

func TestPathsOrderedLikeKeys(t *testing.T) {
	nw := mustBuild(t, Config{N: 64, Seed: 2})
	for u := 1; u < nw.N(); u++ {
		if !pathLess(nw.paths[u-1], nw.paths[u]) {
			t.Fatalf("paths not in key order at %d", u)
		}
	}
}

func TestOwnerOfOwnKey(t *testing.T) {
	nw := mustBuild(t, Config{N: 128, Seed: 3})
	for u := 0; u < nw.N(); u++ {
		if got := nw.Owner(nw.Key(u)); got != u {
			t.Fatalf("Owner(key[%d]) = %d", u, got)
		}
	}
}

func TestLookupMatchesOwner(t *testing.T) {
	for _, d := range []dist.Distribution{dist.Uniform{}, dist.NewTruncExp(5)} {
		nw := mustBuild(t, Config{N: 256, Dist: d, Seed: 4})
		r := xrand.New(5)
		for i := 0; i < 1000; i++ {
			src := r.Intn(nw.N())
			key := keyspace.Key(r.Float64())
			hops, got := nw.Lookup(src, key)
			if want := nw.Owner(key); got != want {
				t.Fatalf("%s: lookup(%d, %v) = peer %d, owner is %d", d.Name(), src, key, got, want)
			}
			if hops > maxDepth+1 {
				t.Fatalf("hops = %d beyond depth bound", hops)
			}
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	const n = 1024
	nw := mustBuild(t, Config{N: n, Seed: 6})
	r := xrand.New(7)
	var s metrics.Summary
	for i := 0; i < 2000; i++ {
		hops, _ := nw.Lookup(r.Intn(n), keyspace.Key(r.Float64()))
		s.Add(float64(hops))
	}
	if s.Mean() > math.Log2(n) {
		t.Errorf("mean hops %.2f exceeds log2 N = %.2f", s.Mean(), math.Log2(n))
	}
}

func TestSkewDeepensPaths(t *testing.T) {
	// The paper's P-Grid claim: balancing a skewed key space costs more
	// than logarithmic routing state. Mean path length (= table size)
	// must exceed the uniform trie's, and the deepest peers must keep
	// clearly more than log2 N references.
	const n = 1024
	uni := mustBuild(t, Config{N: n, Seed: 8})
	skew := mustBuild(t, Config{N: n, Dist: dist.NewTruncExp(8), Seed: 8})
	var su, ss metrics.Summary
	for u := 0; u < n; u++ {
		su.Add(float64(uni.TableSize(u)))
		ss.Add(float64(skew.TableSize(u)))
	}
	if ss.Mean() <= su.Mean() {
		t.Errorf("skewed trie mean state %.2f should exceed uniform %.2f", ss.Mean(), su.Mean())
	}
	if ss.Max() <= math.Log2(n)+1 {
		t.Errorf("deepest skewed peer keeps %v refs, expected clearly above log2 N", ss.Max())
	}
}

func TestSkewedLookupStillWorks(t *testing.T) {
	nw := mustBuild(t, Config{N: 512, Dist: dist.NewPower(0.5), Seed: 9})
	r := xrand.New(10)
	for i := 0; i < 500; i++ {
		src := r.Intn(nw.N())
		key := nw.Key(r.Intn(nw.N()))
		_, got := nw.Lookup(src, key)
		if want := nw.Owner(key); got != want {
			t.Fatalf("lookup = %d, owner = %d", got, want)
		}
	}
}

func TestVirtualSplitRouting(t *testing.T) {
	// All keys in the top half: queries for the empty bottom half must
	// land on the leftmost peer.
	keys := []keyspace.Key{0.6, 0.7, 0.8, 0.9}
	nw := &Network{keys: keyspace.SortPoints(append([]keyspace.Key(nil), keys...))}
	nw.paths = make([][]byte, 4)
	nw.refs = make([][]int32, 4)
	if err := nw.split(0, 4, 0, 1, nil); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	for u := range nw.refs {
		nw.refs[u] = make([]int32, len(nw.paths[u]))
		for l := range nw.refs[u] {
			lo, hi := nw.siblingRange(u, l)
			if hi > lo {
				nw.refs[u][l] = int32(lo + rng.Intn(hi-lo))
			} else if nw.paths[u][l] == 1 {
				pLo, _ := nw.prefixRange(nw.paths[u][:l])
				nw.refs[u][l] = int32(pLo)
			} else {
				_, pHi := nw.prefixRange(nw.paths[u][:l])
				nw.refs[u][l] = int32(pHi - 1)
			}
		}
	}
	for src := 0; src < 4; src++ {
		_, owner := nw.Lookup(src, 0.1)
		if owner != nw.Owner(0.1) {
			t.Fatalf("query into empty region from %d: got %d, owner %d", src, owner, nw.Owner(0.1))
		}
	}
	if nw.Owner(0.1) != 0 {
		t.Errorf("empty-region owner = %d, want leftmost peer", nw.Owner(0.1))
	}
}

func TestPathLessAndHasPrefix(t *testing.T) {
	if !pathLess([]byte{0}, []byte{0, 1}) {
		t.Error("prefix must sort before extension")
	}
	if !pathLess([]byte{0, 1}, []byte{1}) {
		t.Error("lexicographic order wrong")
	}
	if pathLess([]byte{1}, []byte{0, 1}) {
		t.Error("order inverted")
	}
	if !hasPrefix([]byte{0, 1, 1}, []byte{0, 1}) {
		t.Error("hasPrefix false negative")
	}
	if hasPrefix([]byte{0}, []byte{0, 1}) {
		t.Error("short path cannot have longer prefix")
	}
}

func TestDeterministic(t *testing.T) {
	a := mustBuild(t, Config{N: 128, Seed: 11})
	b := mustBuild(t, Config{N: 128, Seed: 11})
	for u := 0; u < a.N(); u++ {
		if a.Key(u) != b.Key(u) || len(a.paths[u]) != len(b.paths[u]) {
			t.Fatal("builds differ for equal seeds")
		}
	}
}
