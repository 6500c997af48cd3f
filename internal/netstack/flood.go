package netstack

import "roborepair/internal/radio"

// Flooder implements the duplicate suppression of controlled flooding:
// "a sensor may receive the same update message multiple times, but it
// relays the message to its neighbors only once. This is achieved by
// remembering the sequence number of the robot location updates it has
// relayed before" (paper §3.2).
//
// Sequence numbers are monotone per origin, so remembering the highest
// handled sequence per origin suffices and stays O(#robots) per sensor.
// Origins are robots and the manager, whose IDs are the smallest the
// world hands out, so the state is an origin-indexed slice.
type Flooder struct {
	seen []floodSeen
}

// floodSeen is the highest sequence handled for one origin.
type floodSeen struct {
	seq   uint64
	known bool
}

// NewFlooder returns an empty duplicate-suppression state.
func NewFlooder() *Flooder {
	return &Flooder{}
}

// Fresh reports whether m is the first copy of its (origin, seq) instance
// seen here, and marks it handled. Later copies — and stale instances with
// lower sequence numbers — report false, as does a negative origin, which
// no station can send from.
func (f *Flooder) Fresh(m FloodMsg) bool {
	if m.Origin < 0 {
		return false
	}
	if int(m.Origin) >= len(f.seen) {
		// Exact growth: origins arrive in no particular order, so the
		// table reaches its final size in a few steps and wastes nothing.
		grown := make([]floodSeen, m.Origin+1)
		copy(grown, f.seen)
		f.seen = grown
	}
	e := &f.seen[m.Origin]
	if e.known && m.Seq <= e.seq {
		return false
	}
	*e = floodSeen{seq: m.Seq, known: true}
	return true
}

// LastSeq returns the highest sequence number handled for origin.
func (f *Flooder) LastSeq(origin radio.NodeID) (uint64, bool) {
	if origin < 0 || int(origin) >= len(f.seen) {
		return 0, false
	}
	e := f.seen[origin]
	return e.seq, e.known
}

// Reset forgets all state (used when a replacement node boots with a fresh
// flooder at the same address).
func (f *Flooder) Reset() { clear(f.seen) }
