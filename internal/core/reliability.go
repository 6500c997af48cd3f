package core

import (
	"roborepair/internal/netstack"
	"roborepair/internal/robot"
	"roborepair/internal/wire"
)

// SetReliability enables the manager-side reliability protocol — acks
// for robot updates and failure reports, per-robot liveness tracking, and
// re-dispatch of requests a dead or silent robot never acknowledged; call
// it before Start. The zero Liveness reproduces the paper's model.
func (m *Manager) SetReliability(rl robot.Liveness) { m.book.Liveness = rl }

// reliable reports whether the reliability protocol is on.
func (m *Manager) reliable() bool { return m.book.Liveness.Enabled() }

// FailNow crashes the manager (resilience extension): it falls silent and
// stops dispatching. The paper's model never calls this.
func (m *Manager) FailNow() {
	if m.failed {
		return
	}
	m.failed = true
	m.medium.SetActive(m.id, false)
	if m.ticker != nil {
		m.ticker.Stop()
	}
}

// Alive reports whether the manager is operational.
func (m *Manager) Alive() bool { return !m.failed }

// heardFlood lets the manager notice a robot's standing manager claim: it
// was silenced long enough (e.g. by a regional blackout) for the fleet to
// declare it dead and elect a replacement, so it stands down rather than
// run a split-brain dispatch against the new manager.
func (m *Manager) heardFlood(fl netstack.FloodMsg) {
	if !m.reliable() {
		return
	}
	switch pl := fl.Payload.(type) {
	case wire.ManagerTakeover:
		if pl.Manager != m.id {
			m.depose()
		}
	case wire.RobotUpdate:
		if pl.Managing && pl.Robot != m.id {
			m.depose()
		}
	}
}

// depose permanently silences a superseded manager.
func (m *Manager) depose() {
	if m.deposed {
		return
	}
	m.deposed = true
	if m.ticker != nil {
		m.ticker.Stop()
	}
	if m.hooks.OnDeposed != nil {
		m.hooks.OnDeposed()
	}
}

// relTick re-dispatches outstanding requests whose robot died or never
// acknowledged; with no live robot a request stays outstanding.
func (m *Manager) relTick() {
	if m.failed || m.deposed {
		return
	}
	m.book.Redispatch(m.medium.Scheduler().Now(), m.selectRobot, nil)
}
