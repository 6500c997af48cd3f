package netstack

import (
	"slices"

	"roborepair/internal/geom"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
)

// Neighbor is one entry of a node's one-hop neighbor table, built from
// received beacons and location broadcasts.
type Neighbor struct {
	ID        radio.NodeID
	Loc       geom.Point
	LastHeard sim.Time
}

// NeighborTable tracks a node's one-hop neighbors. Entries live in an
// ID-ascending slice, with their IDs mirrored in a parallel key slice: a
// sensor hears a dozen or two neighbors, so a lookup is a short scan of
// one or two cache lines of keys (measured faster here than bisection,
// whose compares the branch predictor cannot learn, and than a map), an
// update is in place, and every walk is already in the deterministic order
// the simulator needs. The zero value is an empty table.
type NeighborTable struct {
	ids     []radio.NodeID // ascending; ids[i] == entries[i].ID
	entries []Neighbor
	purged  []radio.NodeID // Purge's reused result buffer
}

// NewNeighborTable returns an empty table.
func NewNeighborTable() *NeighborTable {
	return &NeighborTable{}
}

// find returns the index of id's entry, or where it would be inserted, and
// whether it is present.
func (t *NeighborTable) find(id radio.NodeID) (int, bool) {
	ids := t.ids
	i := 0
	for i < len(ids) && ids[i] < id {
		i++
	}
	return i, i < len(ids) && ids[i] == id
}

// Upsert records that id was heard at loc at time now.
func (t *NeighborTable) Upsert(id radio.NodeID, loc geom.Point, now sim.Time) {
	n := Neighbor{ID: id, Loc: loc, LastHeard: now}
	i, ok := t.find(id)
	if !ok {
		t.ids = slices.Insert(t.ids, i, id)
		t.entries = slices.Insert(t.entries, i, n)
		return
	}
	t.entries[i] = n
}

// Remove deletes a neighbor (e.g. after its failure is detected).
func (t *NeighborTable) Remove(id radio.NodeID) {
	if i, ok := t.find(id); ok {
		t.ids = slices.Delete(t.ids, i, i+1)
		t.entries = slices.Delete(t.entries, i, i+1)
	}
}

// Get returns the entry for id.
func (t *NeighborTable) Get(id radio.NodeID) (Neighbor, bool) {
	if i, ok := t.find(id); ok {
		return t.entries[i], true
	}
	return Neighbor{}, false
}

// Len reports the number of entries.
func (t *NeighborTable) Len() int { return len(t.entries) }

// Touch refreshes LastHeard for an existing entry without changing its
// location; it reports whether the entry existed.
func (t *NeighborTable) Touch(id radio.NodeID, now sim.Time) bool {
	i, ok := t.find(id)
	if ok {
		t.entries[i].LastHeard = now
	}
	return ok
}

// Purge removes entries not heard since the deadline and returns the
// removed IDs in ascending order. The returned slice is the table's own
// buffer: it stays valid until the next Purge, and the table may be
// modified while the caller walks it.
func (t *NeighborTable) Purge(deadline sim.Time) []radio.NodeID {
	t.purged = t.purged[:0]
	k := 0
	for _, n := range t.entries {
		if n.LastHeard < deadline {
			t.purged = append(t.purged, n.ID)
			continue
		}
		t.ids[k], t.entries[k] = n.ID, n
		k++
	}
	t.ids = t.ids[:k]
	t.entries = t.entries[:k]
	return t.purged
}

// All returns a copy of the entries in ascending ID order (deterministic
// iteration for the simulator).
func (t *NeighborTable) All() []Neighbor {
	out := make([]Neighbor, len(t.entries))
	copy(out, t.entries)
	return out
}

// ClosestTo returns the neighbor geographically closest to target and
// whether the table is non-empty.
func (t *NeighborTable) ClosestTo(target geom.Point) (Neighbor, bool) {
	best := Neighbor{}
	bestD := -1.0
	for _, n := range t.entries {
		d := n.Loc.Dist2(target)
		if bestD < 0 || d < bestD {
			best, bestD = n, d
		}
	}
	return best, bestD >= 0
}

// NearestNeighbor returns the neighbor closest to self, used for guardian
// selection ("picks its nearest neighbor as its guardian"). except lists
// IDs to skip (e.g. robots, which never act as guardians).
func (t *NeighborTable) NearestNeighbor(self geom.Point, except map[radio.NodeID]bool) (Neighbor, bool) {
	best := Neighbor{}
	bestD := -1.0
	for _, n := range t.entries {
		if except[n.ID] {
			continue
		}
		d := n.Loc.Dist2(self)
		if bestD < 0 || d < bestD {
			best, bestD = n, d
		}
	}
	return best, bestD >= 0
}

// GabrielNeighbors returns the table entries that form Gabriel-graph edges
// with self, witnessed by the full table — the planar subgraph face
// routing walks.
func (t *NeighborTable) GabrielNeighbors(self geom.Point) []Neighbor {
	all := t.entries
	witnesses := make([]geom.Point, len(all))
	for i, n := range all {
		witnesses[i] = n.Loc
	}
	var out []Neighbor
	for _, n := range all {
		if geom.GabrielEdge(self, n.Loc, witnesses) {
			out = append(out, n)
		}
	}
	return out
}
