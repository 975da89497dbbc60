package main

import "testing"

func TestCheckCounts(t *testing.T) {
	for _, c := range []struct {
		queries, replicas int
		ok                bool
	}{
		{2000, 0, true},
		{1, 3, true},
		{0, 0, false},
		{-1, 0, false},
		{2000, -1, false},
	} {
		if err := checkCounts(c.queries, c.replicas); (err == nil) != c.ok {
			t.Errorf("checkCounts(%d, %d) = %v, want ok %v", c.queries, c.replicas, err, c.ok)
		}
	}
}
