package shard

import (
	"fmt"

	"smallworld/keyspace"
)

// Map is the shard map: [0,1) cut into K contiguous equal-width
// ranges, shard i owning [i/K, (i+1)/K). Ownership is pure arithmetic
// on the key — every participant resolves it locally and consistently,
// with no directory to synchronise. Map is immutable.
type Map struct {
	k int
}

// NewMap returns the K-shard map. K must be at least 1.
func NewMap(k int) (*Map, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: map needs at least 1 shard, got %d", k)
	}
	return &Map{k: k}, nil
}

// Of returns the shard owning key k.
func (m *Map) Of(k keyspace.Key) int {
	i := int(float64(k) * float64(m.k))
	if i >= m.k { // keys sit in [0,1), but clamp defensively
		i = m.k - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// Mid returns the midpoint of shard i's range — the key-space position
// a shard endpoint occupies on a fault plane (wire.NewFault's AddrKey).
func (m *Map) Mid(i int) keyspace.Key {
	return keyspace.Key((float64(i) + 0.5) / float64(m.k))
}
