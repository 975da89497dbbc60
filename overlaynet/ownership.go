package overlaynet

import (
	"smallworld/keyspace"
)

// Ownership: which node is responsible for which keys. The math itself
// lives in keyspace.Cell/Owner — the single definition the writer and
// the store's replica placement share — and this file exposes the
// snapshot's sorted population it runs over plus the typed churn events
// that let a data plane (the store package) follow ownership as
// membership changes.

// SortedKeys returns the snapshot's identifiers in ascending key order —
// the population the ownership math runs over. Read-only. Like Keys,
// the flat Points is materialized from the chunked rank index on first
// call and cached for the snapshot's lifetime.
func (s *Snapshot) SortedKeys() keyspace.Points {
	if p := s.flatSorted.Load(); p != nil {
		return *p
	}
	flat := s.rank.materializeKeys()
	s.flatSorted.Store(&flat)
	return flat
}

// OwnershipChange is one typed transfer of responsibility, emitted by
// dynamic overlays that implement OwnershipReporter. A membership event
// moves key ranges between the node and its rank neighbours:
//
//   - Join: the newcomer steals Range from Peer (the flank that owned
//     it before). A join between two live flanks emits two changes, one
//     per donor; Joined is true and Node is the newcomer's identifier.
//   - Leave: the leaver's cell is inherited by its flanks. Joined is
//     false, Node is the leaver's identifier, and Peer is the inheritor
//     that now owns Range.
//
// Ranges are half-open intervals in the same convention as
// keyspace.Cell; the changes of one membership event are disjoint and
// their union is exactly the cell that changed hands. Nodes are named
// by identifier, not slot index: slot indices are not stable across
// membership events (the incremental overlay renames the last slot on
// leave), identifiers are.
type OwnershipChange struct {
	// Joined distinguishes a join (Node acquired Range from Peer) from
	// a leave (Peer inherited Range from Node).
	Joined bool
	// Node is the identifier of the node that joined or left.
	Node keyspace.Key
	// Peer is the other party: the donor flank on join, the inheriting
	// flank on leave.
	Peer keyspace.Key
	// Range is the half-open key interval that changed hands.
	Range keyspace.Interval
}

// OwnershipReporter is implemented by dynamic overlays that can narrate
// their membership events as typed ownership transfers. The watcher is
// invoked synchronously inside Join/Leave, after the overlay's own
// state reflects the event; it must not call back into the overlay.
// At most one watcher is installed — a second call replaces the first;
// nil uninstalls.
type OwnershipReporter interface {
	SetOwnershipWatcher(func(OwnershipChange))
}
