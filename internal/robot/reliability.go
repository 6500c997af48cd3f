package robot

import (
	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// defaultTakeoverTTL bounds manager-takeover and managing-heartbeat floods
// when Reliability.FloodTTL is unset (matches the core flood TTL).
const defaultTakeoverTTL = 32

// Liveness is the heartbeat timing of the reliability extension, shared
// by the robots and by both kinds of manager. The zero value reproduces
// the paper's model exactly: no heartbeats, no acks, no re-dispatch.
type Liveness struct {
	// HeartbeatPeriod > 0 enables the protocol: robots publish their
	// location every period even when idle (the heartbeat other parties
	// use to detect a death), reports and requests are acked, and repair
	// tasks are de-duplicated by failed-node ID.
	HeartbeatPeriod sim.Duration
	// MissedHeartbeats is how many silent periods declare a robot (or the
	// manager) dead (3 when unset).
	MissedHeartbeats int
	// DispatchAckTimeout is a manager's initial re-dispatch timeout for
	// unacknowledged repair requests (doubled per attempt, capped at 8x).
	DispatchAckTimeout sim.Duration
}

// Enabled reports whether the reliability protocol is on.
func (l Liveness) Enabled() bool { return l.HeartbeatPeriod > 0 }

// deadAfter is the silence that declares a robot or the manager dead.
func (l Liveness) deadAfter() sim.Duration {
	n := l.MissedHeartbeats
	if n <= 0 {
		n = 3
	}
	return l.HeartbeatPeriod * sim.Duration(n)
}

// Reliability holds the robot-side knobs of the reliability extension.
// The zero value reproduces the paper's model exactly: no heartbeats, no
// acks, no failover.
type Reliability struct {
	Liveness
	// Manager is the central manager to ack heartbeats with and to watch
	// for death (0 under the distributed algorithms).
	Manager radio.NodeID
	// ManagerLoc is the manager's location, for routing acks to it.
	ManagerLoc geom.Point
	// TakeoverRank staggers takeover attempts after a manager death:
	// rank r waits r half-heartbeat-periods before assuming the role, so
	// the lowest surviving rank wins without an election protocol.
	TakeoverRank int
	// FloodTTL bounds takeover and managing-heartbeat floods (0 selects
	// the default of 32).
	FloodTTL int
}

func (rl Reliability) floodTTL() int {
	if rl.FloodTTL > 0 {
		return rl.FloodTTL
	}
	return defaultTakeoverTTL
}

// Stranded returns the tasks that died with this robot (set by FailNow).
func (r *Robot) Stranded() []Task { return r.stranded }

// Managing reports whether this robot has assumed the manager role.
func (r *Robot) Managing() bool { return r.managing }

// ManagerTarget returns the robot's current manager override for location
// updates: the takeover-elected manager, or the configured one. ok is
// false when the reliability protocol is off or no manager is known.
func (r *Robot) ManagerTarget() (radio.NodeID, geom.Point, bool) {
	if !r.cfg.Reliability.Enabled() || r.mgrID == 0 {
		return 0, geom.Point{}, false
	}
	return r.mgrID, r.mgrLoc, true
}

// relTick is the heartbeat: publish the current location (even when idle),
// then run the role-specific liveness checks.
func (r *Robot) relTick() {
	if r.failed {
		return
	}
	if r.moving {
		r.reindex()
	}
	r.publish()
	if r.managing {
		r.managerTick()
		return
	}
	if r.mgrID != 0 && !r.takeoverArmed {
		if r.lastMgrAck < r.sched.Now().Sub(r.cfg.Reliability.deadAfter()) {
			r.suspectManager()
		}
	}
}

// suspectManager reacts to a silent manager: stop updating the corpse and
// arm a rank-staggered takeover attempt.
func (r *Robot) suspectManager() {
	rel := r.cfg.Reliability
	r.takeoverArmed = true
	r.mgrID = 0
	delay := sim.Duration(rel.TakeoverRank) * (rel.HeartbeatPeriod / 2)
	r.takeoverEv = r.sched.After(delay, r.attemptTakeover)
}

// attemptTakeover assumes the manager role unless another robot's takeover
// was heard during the stagger delay.
func (r *Robot) attemptTakeover() {
	if r.failed || r.managing || !r.takeoverArmed || r.mgrID != 0 {
		return
	}
	r.takeoverArmed = false
	r.managing = true
	r.mgrID = r.id
	r.mgrLoc = r.Pos()
	if r.hooks.OnTakeover != nil {
		r.hooks.OnTakeover(r)
	}
	r.seq++
	r.medium.Send(radio.Frame{
		Src:      r.id,
		Dst:      radio.IDBroadcast,
		Category: metrics.CatTakeover,
		Payload: netstack.FloodMsg{
			Origin:   r.id,
			Seq:      r.seq,
			Category: metrics.CatTakeover,
			Payload:  wire.ManagerTakeover{Manager: r.id, Loc: r.Pos()},
			TTL:      r.cfg.Reliability.floodTTL(),
		},
	})
	r.publish() // flooded heartbeat: sensors learn the new manager's route
}

// heardTakeover processes another robot's ManagerTakeover flood.
func (r *Robot) heardTakeover(t wire.ManagerTakeover) {
	if t.Manager == r.id {
		return
	}
	if r.managing {
		// Concurrent takeovers (possible under latency): lowest ID keeps
		// the role, the other abdicates and re-registers as a worker.
		if t.Manager > r.id {
			return
		}
		r.managing = false
		// Hand the dispatch book over implicitly: un-see everything we
		// dispatched to others so the new manager can assign it to us, and
		// let reporter retransmission re-surface it there. Our own queued
		// tasks stay seen and get served.
		r.book.Retire(func(wire.RepairRequest) bool { return true })
	}
	r.sched.Cancel(r.takeoverEv)
	r.takeoverArmed = false
	r.mgrID = t.Manager
	r.mgrLoc = t.Loc
	r.lastMgrAck = r.sched.Now()
	r.publish() // register with the new manager immediately
}

// handleFloodRel processes floods a reliability-enabled robot overhears.
func (r *Robot) handleFloodRel(m netstack.FloodMsg) {
	switch pl := m.Payload.(type) {
	case wire.ManagerTakeover:
		r.heardTakeover(pl)
	case wire.RobotUpdate:
		r.book.Note(pl, r.sched.Now())
		switch {
		case pl.Managing && pl.Robot != r.id && (r.managing || r.takeoverArmed || r.mgrID != pl.Robot):
			// A standing manager claim that is news to us: adopt it (or,
			// when we also hold the role, settle the conflict by ID).
			r.heardTakeover(wire.ManagerTakeover{Manager: pl.Robot, Loc: pl.Loc})
		case !r.managing && pl.Robot == r.mgrID:
			// A flooded heartbeat from the manager is liveness proof in
			// itself, and tracks it when mobile (post-takeover).
			r.mgrLoc = pl.Loc
			r.lastMgrAck = r.sched.Now()
		}
	}
}

// ackDispatch confirms a repair request back to its dispatcher. The
// request names its issuer so the ack reaches the actual requester even
// when this robot tracks a different manager (failover transient).
func (r *Robot) ackDispatch(req wire.RepairRequest) {
	dst, loc := req.Manager, req.ManagerLoc
	if dst == 0 {
		dst, loc = r.mgrID, r.mgrLoc
	}
	if dst == 0 || dst == r.id {
		return
	}
	r.router.Originate(netstack.Packet{
		Dst:      dst,
		DstLoc:   loc,
		Category: metrics.CatAck,
		Payload:  wire.DispatchAck{Robot: r.id, Failed: req.Failed},
	})
}

// dropQueuedAt cancels queued repair tasks for a site the robot just heard
// alive (a beacon or boot announce from exactly the task's location): the
// visit would be a duplicate trip. The in-progress task is not aborted —
// the world-level dedup absorbs its arrival — and the seen entry is
// cleared so a later genuine failure of that node is accepted again. A
// managing robot also retires outstanding dispatches for the site.
func (r *Robot) dropQueuedAt(loc geom.Point) {
	const eps2 = 1e-6 // sensors are stationary; locations match exactly
	if len(r.queue) > 0 {
		kept := r.queue[:0]
		for _, t := range r.queue {
			if t.Loc.Dist2(loc) <= eps2 {
				r.book.Unsee(t.Failed)
				continue
			}
			kept = append(kept, t)
		}
		r.queue = kept
	}
	r.book.Retire(func(req wire.RepairRequest) bool { return req.Loc.Dist2(loc) <= eps2 })
}

// reportDone tells the dispatcher a repair completed.
func (r *Robot) reportDone(failed radio.NodeID) {
	if r.mgrID == 0 || r.mgrID == r.id {
		return
	}
	r.router.Originate(netstack.Packet{
		Dst:      r.mgrID,
		DstLoc:   r.mgrLoc,
		Category: metrics.CatAck,
		Payload:  wire.RepairDone{Robot: r.id, Failed: failed},
	})
}

// dispatchAsManager is the managing robot's dispatcher: deduplicate the
// report, pick the closest live robot (itself included), and either
// enqueue locally or issue a tracked repair request.
func (r *Robot) dispatchAsManager(rep wire.FailureReport) {
	if !r.book.MarkSeen(rep.Failed) {
		return
	}
	now := r.sched.Now()
	if target, _ := r.closestLive(rep.Loc, now); target != r.id {
		r.book.Issue(r.book.Request(rep, now), target, now)
		return
	}
	r.enqueueTask(Task{Failed: rep.Failed, Loc: rep.Loc, EnqueuedAt: now})
}

// closestLive returns the live robot closest to loc, the managing robot
// itself included; ties break toward the lowest ID. ok is always true.
func (r *Robot) closestLive(loc geom.Point, now sim.Time) (radio.NodeID, bool) {
	self := r.Pos().Dist2(loc)
	id, d, ok := r.book.Best(now, func(e FleetEntry) float64 { return e.Loc.Dist2(loc) })
	if !ok || self < d || (self == d && r.id < id) {
		return r.id, true
	}
	return id, true
}

// managerTick re-dispatches outstanding requests whose robot died or
// never acknowledged; a request re-assigned to this robot is queued here.
func (r *Robot) managerTick() {
	r.book.Redispatch(r.sched.Now(), r.closestLive, func(req wire.RepairRequest) {
		r.enqueueTask(Task{Failed: req.Failed, Loc: req.Loc, EnqueuedAt: r.sched.Now()})
	})
}
