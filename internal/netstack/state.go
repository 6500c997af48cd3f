package netstack

import "roborepair/internal/checkpoint"

// AppendState serializes the table's entries in ascending ID order
// (checkpoint section payload).
func (t *NeighborTable) AppendState(b []byte) []byte {
	b = checkpoint.AppendU32(b, uint32(len(t.entries)))
	for _, n := range t.entries {
		b = checkpoint.AppendI64(b, int64(n.ID))
		b = checkpoint.AppendF64(b, n.Loc.X)
		b = checkpoint.AppendF64(b, n.Loc.Y)
		b = checkpoint.AppendF64(b, float64(n.LastHeard))
	}
	return b
}

// AppendState serializes the flooder's duplicate-suppression state in
// ascending origin order (checkpoint section payload).
func (f *Flooder) AppendState(b []byte) []byte {
	n := 0
	for _, e := range f.seen {
		if e.known {
			n++
		}
	}
	b = checkpoint.AppendU32(b, uint32(n))
	for id, e := range f.seen {
		if e.known {
			b = checkpoint.AppendI64(b, int64(id))
			b = checkpoint.AppendU64(b, e.seq)
		}
	}
	return b
}
