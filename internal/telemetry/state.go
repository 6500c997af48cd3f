package telemetry

import "roborepair/internal/checkpoint"

// AppendState serializes the collector's complete dynamic state in
// canonical order (checkpoint section payload): the ring positions and
// retained rows. Nil-safe: a world with telemetry off appends a single
// absent marker, so the section is still present and comparable.
func (c *Collector) AppendState(b []byte) []byte {
	if c == nil {
		return checkpoint.AppendBool(b, false)
	}
	b = checkpoint.AppendBool(b, true)
	b = checkpoint.AppendF64(b, c.cfg.SamplePeriodS)
	b = checkpoint.AppendI64(b, int64(len(c.times)))
	b = checkpoint.AppendI64(b, int64(c.start))
	b = checkpoint.AppendI64(b, int64(c.n))
	b = checkpoint.AppendI64(b, int64(c.drops))
	b = checkpoint.AppendU32(b, uint32(len(c.names)))
	for gi, name := range c.names {
		b = checkpoint.AppendString(b, name)
		// Retained rows oldest-first, so the payload is a function of the
		// sample history alone, not of the ring's physical layout.
		for i := 0; i < c.n; i++ {
			row := c.row(i)
			if gi == 0 {
				// Timestamps once, alongside the first gauge.
				b = checkpoint.AppendF64(b, c.times[row])
			}
			b = checkpoint.AppendF64(b, c.cols[gi][row])
		}
	}
	return b
}
