package core

import "roborepair/internal/checkpoint"

// AppendState serializes the central manager's complete dynamic state in
// canonical order (checkpoint section payload).
func (m *Manager) AppendState(b []byte) []byte {
	b = checkpoint.AppendI64(b, int64(m.id))
	b = checkpoint.AppendF64(b, m.pos.X)
	b = checkpoint.AppendF64(b, m.pos.Y)
	b = checkpoint.AppendF64(b, m.meanDispatchDist)
	b = checkpoint.AppendI64(b, int64(m.dispatches))
	b = checkpoint.AppendU64(b, m.seq)
	b = checkpoint.AppendBool(b, m.failed)
	b = checkpoint.AppendBool(b, m.deposed)
	return m.book.AppendState(b)
}
