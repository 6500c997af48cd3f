package radio

import (
	"roborepair/internal/sim"
)

// Contention model: an optional refinement of the ideal medium that
// approximates the 802.11 MAC the paper ran on. Each transmission waits a
// random backoff, then occupies the air for a frame-length-dependent
// airtime; a receiver decodes a frame only if no other transmission it can
// hear overlaps the frame's airtime (collision otherwise). This is a
// slotted-ALOHA-with-backoff abstraction of CSMA: at the paper's traffic
// load (beacons every 10 s, sparse control traffic) collisions are rare
// and delivery stays ≈100%, matching the paper's observation, but the
// model lets robustness experiments crank the load until the MAC matters.

// CatCollision is the metrics category counting receptions lost to
// overlapping transmissions.
const CatCollision = "collision"

// ContentionConfig parameterizes the optional MAC model.
type ContentionConfig struct {
	// Airtime is how long one frame occupies the channel (e.g. a 1000 B
	// frame at 11 Mbit/s ≈ 0.73 ms).
	Airtime sim.Duration
	// MaxBackoff is the upper bound of the uniform random delay before a
	// transmission starts.
	MaxBackoff sim.Duration
	// Rand draws the backoffs.
	Rand interface{ Float64() float64 }
}

// Enabled reports whether the contention model is active.
func (c ContentionConfig) Enabled() bool {
	return c.Airtime > 0 && c.Rand != nil
}

// reception is one transmission interval audible at a station.
type reception struct {
	frame uint64
	start sim.Time
	end   sim.Time
}

// air tracks per-station audible transmission intervals, indexed by
// NodeID like the medium's other per-station state.
type air struct {
	byStation [][]reception
}

// log returns the station's audible intervals (nil when none).
func (a *air) log(st NodeID) []reception {
	if int(st) >= len(a.byStation) {
		return nil
	}
	return a.byStation[st]
}

// mark logs that a frame is audible at the station over [start, end).
func (a *air) mark(st NodeID, r reception) {
	if need := int(st) + 1; need > len(a.byStation) {
		a.byStation = append(a.byStation, make([][]reception, need-len(a.byStation))...)
	}
	log := a.byStation[st]
	// Prune entries that can no longer overlap anything in flight.
	cutoff := r.start - (r.end-r.start)*8
	keep := log[:0]
	for _, e := range log {
		if e.end > cutoff {
			keep = append(keep, e)
		}
	}
	a.byStation[st] = append(keep, r)
}

// collided reports whether any other audible interval overlaps the frame's
// interval at the station.
func (a *air) collided(st NodeID, frame uint64, start, end sim.Time) bool {
	for _, e := range a.log(st) {
		if e.frame == frame {
			continue
		}
		if e.start < end && start < e.end {
			return true
		}
	}
	return false
}

// busyUntil reports whether the channel is busy at the station at instant
// now, and when the ongoing transmission(s) end.
func (a *air) busyUntil(st NodeID, now sim.Time) (sim.Time, bool) {
	var until sim.Time
	busy := false
	for _, e := range a.log(st) {
		if e.start <= now && now < e.end {
			busy = true
			if e.end > until {
				until = e.end
			}
		}
	}
	return until, busy
}

// csmaMaxDefers bounds how often a transmission defers to a busy channel
// before it gives up waiting and transmits anyway (matching 802.11's
// retry-bounded behaviour while guaranteeing simulation progress).
const csmaMaxDefers = 16

// sendContended implements Send under the contention model: CSMA-style
// carrier sensing with random backoff, then the frame occupies the air for
// its airtime; receivers decode it only if nothing else they can hear
// overlaps (hidden terminals still collide, as in real 802.11).
func (m *Medium) sendContended(f Frame, enc []byte, pos sendSnapshot) {
	m.frameSeq++
	m.tryTransmit(f, enc, pos, m.frameSeq, 0)
}

func (m *Medium) backoff() sim.Duration {
	if m.cfg.Contention.MaxBackoff <= 0 {
		return 0
	}
	return sim.Duration(m.cfg.Contention.Rand.Float64()) * m.cfg.Contention.MaxBackoff
}

func (m *Medium) tryTransmit(f Frame, enc []byte, pos sendSnapshot, frameID uint64, defers int) {
	m.sched.After(m.backoff(), func() {
		now := m.sched.Now()
		// Carrier sense: defer while the channel is busy at the sender.
		if until, busy := m.air.busyUntil(f.Src, now); busy && defers < csmaMaxDefers {
			m.sched.After(until.Sub(now), func() {
				m.tryTransmit(f, enc, pos, frameID, defers+1)
			})
			return
		}
		start := m.sched.Now()
		end := start.Add(m.cfg.Contention.Airtime)
		// The frame is audible at every active station in range,
		// regardless of addressing — that is what causes collisions.
		audible := m.neighbors(pos.pos, pos.rng, f.Src)
		for _, id := range audible {
			m.air.mark(id, reception{frame: frameID, start: start, end: end})
		}
		m.recycle(audible)
		// The sender itself hears its own transmission (for carrier
		// sensing by its later frames).
		m.air.mark(f.Src, reception{frame: frameID, start: start, end: end})
		m.sched.After(m.cfg.Contention.Airtime, func() {
			m.deliverContended(f, enc, frameID, start, end, pos)
		})
	})
}

func (m *Medium) deliverContended(f Frame, enc []byte, frameID uint64, start, end sim.Time, pos sendSnapshot) {
	if m.silenced(pos.pos) {
		m.reg.CountTx(CatBlackout, 1)
		return
	}
	deliverTo := func(id NodeID, st Station) {
		if m.air.collided(id, frameID, start, end) {
			m.collisionCt.Add(1)
			return
		}
		if m.silenced(m.posOf(id)) {
			return
		}
		if m.lost(f, id) {
			return
		}
		m.handoff(f, enc, pos.pos, pos.rng, st)
	}
	if f.Dst != IDBroadcast {
		dst := m.station(f.Dst)
		if dst == nil || !m.active[f.Dst] {
			return
		}
		if pos.pos.Dist2(m.posOf(f.Dst)) > pos.rng*pos.rng {
			return
		}
		deliverTo(f.Dst, dst)
		return
	}
	buf := m.neighbors(pos.pos, pos.rng, f.Src)
	for _, id := range buf {
		if st := m.stations[id]; st != nil { // nil: detached by a nested delivery
			deliverTo(id, st)
		}
	}
	m.recycle(buf)
}
