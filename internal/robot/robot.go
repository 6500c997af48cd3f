// Package robot implements the maintenance robots: point kinematics at
// constant speed, a first-come-first-served repair queue, the 20 m
// location-update rule, and node replacement at the failure site.
package robot

import (
	"roborepair/internal/energy"
	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// QueuePolicy selects which pending task a robot serves next.
type QueuePolicy int

const (
	// FCFS serves tasks in arrival order, as in the paper ("a robot
	// queues such requests and handles the failures in a first-come-
	// first-serve fashion").
	FCFS QueuePolicy = iota
	// NearestFirst serves the pending task closest to the robot's current
	// position — an extension ablation trading fairness for travel.
	NearestFirst
)

// String names the queue policy.
func (p QueuePolicy) String() string {
	if p == NearestFirst {
		return "nearest-first"
	}
	return "fcfs"
}

// Config carries the robot parameters of the paper's setup (§4.1).
type Config struct {
	// Speed is the travel speed in m/s (1, per the Pioneer 3DX).
	Speed float64
	// Range is the transmission range in meters (250).
	Range float64
	// UpdateThreshold is how far the robot travels between location
	// updates (20 m, under a third of the sensor range).
	UpdateThreshold float64
	// ServiceTime is the time spent unloading a replacement node at the
	// failure site.
	ServiceTime sim.Duration
	// Queue selects the task-selection policy (FCFS in the paper).
	Queue QueuePolicy
	// Cargo is how many replacement nodes the robot carries before it
	// must restock at the Depot (extension; 0 means unlimited, as the
	// paper implicitly assumes).
	Cargo int
	// Depot is where a cargo-limited robot reloads.
	Depot geom.Point
	// Reliability configures heartbeats, acknowledgements, and manager
	// failover (extension; the zero value disables all of it).
	Reliability Reliability
	// Battery configures the finite-energy extension (the zero value
	// disables it: no pack is allocated, robots never tire).
	Battery BatteryParams
	// StrictSeq rejects peer location updates whose Seq is below the last
	// accepted one for that peer (hostile-channel defense: stale replays
	// must not roll peer positions back). Off by default — on a benign
	// medium flood relaying genuinely reorders updates.
	StrictSeq bool
}

// Task is one queued repair job.
type Task struct {
	Failed     radio.NodeID
	Loc        geom.Point
	EnqueuedAt sim.Time
}

// UpdateMode disseminates a robot's location updates; the three
// coordination algorithms differ here (unicast-to-manager vs. subarea
// flood vs. dynamic Voronoi flood).
type UpdateMode interface {
	Publish(r *Robot, up wire.RobotUpdate)
}

// Hooks lets the runner observe robot-level events.
type Hooks struct {
	// SpawnReplacement deploys a fresh sensor at the failure site and
	// returns its ID. The deploying robot is passed so the runner can set
	// the new node's initial report target.
	SpawnReplacement func(r *Robot, loc geom.Point) radio.NodeID
	// OnTaskDone fires after each completed repair with the distance the
	// robot traveled for that task and its queueing+travel delay.
	OnTaskDone func(r *Robot, t Task, dist float64, delay sim.Duration)
	// OnReportReceived fires when a failure report is delivered directly
	// to this robot (distributed algorithms).
	OnReportReceived func(rep wire.FailureReport, hops int)
	// OnRequestReceived fires when a repair request from the central
	// manager is delivered.
	OnRequestReceived func(req wire.RepairRequest, hops int)
	// OnPublish fires whenever the robot disseminates a location update
	// (including the initial announcement, sequence 1).
	OnPublish func(r *Robot, up wire.RobotUpdate)
	// OnFail fires when the robot breaks down, with the tasks stranded in
	// its queue (current task included).
	OnFail func(r *Robot, stranded []Task)
	// OnTakeover fires when this robot assumes the manager role after
	// detecting the manager's death.
	OnTakeover func(r *Robot)
	// OnRequestIssued fires when this robot, acting as manager after a
	// takeover, dispatches a repair request to another robot (a report it
	// keeps for itself issues no request).
	OnRequestIssued func(req wire.RepairRequest, to radio.NodeID)
	// OnRedispatch fires when this robot, acting as manager, re-issues an
	// outstanding repair request to another robot.
	OnRedispatch func(req wire.RepairRequest, to radio.NodeID, attempt int)
	// OnMove fires at every position fix — each settle and each spatial
	// reindex — with the previous anchor, the time it was fixed, and the
	// new position, so an observer can bound displacement by speed ×
	// elapsed (the kinematics conservation law).
	OnMove func(r *Robot, from geom.Point, fromAt sim.Time, to geom.Point)
	// OnBatteryDeath fires when the robot's battery hits zero and it dies
	// in place (after OnFail has stranded its tasks).
	OnBatteryDeath func(r *Robot)
	// OnRecharge fires when the robot finishes recharging at the depot.
	OnRecharge func(r *Robot)
	// OnHandoff fires when a low-battery robot heads for the charger with
	// the tasks it is handing back, so the runner can re-queue them on the
	// rest of the fleet.
	OnHandoff func(r *Robot, handed []Task)
}

// Robot is a mobile maintainer (and, in the distributed algorithms, a
// manager for its region).
type Robot struct {
	id    radio.NodeID
	cfg   Config
	mode  UpdateMode
	hooks Hooks

	medium *radio.Medium
	sched  *sim.Scheduler
	router *netstack.Router

	// Kinematics: while moving, position is interpolated from anchor.
	anchor     geom.Point
	anchorTime sim.Time
	dest       geom.Point
	moving     bool
	arriveEv   sim.Event
	updateEv   sim.Event
	indexedPos geom.Point // last position pushed into the medium's index

	queue    []Task
	current  *Task
	taskFrom geom.Point // position where the current task started

	traveled   float64
	seq        uint64
	cargo      int  // replacement nodes on board; -1 means unlimited
	restocking bool // current leg heads to the depot, not the task
	restocks   int
	failed     bool

	// Standby-relocation state (facility-location coordination): an idle
	// robot moving to a commanded parking spot, preempted by any real
	// repair task. Inert for the paper's three algorithms.
	relocating  bool
	relocFrom   geom.Point // position where the relocation leg started
	relocSeq    uint64     // highest relocation command sequence accepted
	relocations int        // completed relocation legs

	// Energy-extension state (inert when cfg.Battery is zero): a finite
	// pack with lazy accrual, recharge legs, and death at empty.
	bat          *energy.Battery
	batAt        sim.Time   // last accrual instant
	extraDrainW  float64    // adversarial parasitic load (chaos drain windows)
	charging     bool       // parked at the depot, charging
	rechargeLeg  bool       // current leg heads to the depot charger
	rechargeFrom geom.Point // where the recharge leg started
	chargeEv     sim.Event
	deathEv      sim.Event
	recharges    int
	handoffs     int // tasks handed back when detouring to recharge
	died         bool
	diedAt       sim.Time

	// Reliability-extension state (inert when cfg.Reliability is zero).
	relTicker      *sim.Ticker
	mgrID          radio.NodeID
	mgrLoc         geom.Point
	lastMgrAck     sim.Time
	takeoverEv     sim.Event
	takeoverArmed  bool
	managing       bool
	stranded       []Task
	seen           map[radio.NodeID]bool         // failed IDs already queued or dispatched
	replayRejected uint64                        // peer updates dropped by the StrictSeq guard
	peers          map[radio.NodeID]peerState    // other robots, by last heartbeat
	outstanding    map[radio.NodeID]*outDispatch // managing role: issued requests by failed ID
}

var _ radio.Station = (*Robot)(nil)

// New constructs a robot at pos; call Start to attach it to the medium.
func New(id radio.NodeID, pos geom.Point, cfg Config, mode UpdateMode, medium *radio.Medium, hooks Hooks) *Robot {
	cargo := -1
	if cfg.Cargo > 0 {
		cargo = cfg.Cargo
	}
	r := &Robot{
		id:         id,
		cfg:        cfg,
		mode:       mode,
		hooks:      hooks,
		medium:     medium,
		sched:      medium.Scheduler(),
		anchor:     pos,
		anchorTime: medium.Scheduler().Now(),
		indexedPos: pos,
		cargo:      cargo,
	}
	if cfg.Reliability.Enabled() {
		r.seen = make(map[radio.NodeID]bool)
		r.peers = make(map[radio.NodeID]peerState)
		r.outstanding = make(map[radio.NodeID]*outDispatch)
	}
	if cfg.Battery.Enabled() {
		r.bat = energy.NewBattery(cfg.Battery.CapacityJ)
		r.batAt = r.sched.Now()
	}
	r.router = &netstack.Router{
		ID:     id,
		Pos:    r.Pos,
		Range:  func() float64 { return r.cfg.Range },
		Medium: medium,
		Source: &netstack.MediumSource{
			Medium: medium,
			Self:   id,
			Pos:    r.Pos,
			Range:  func() float64 { return r.cfg.Range },
		},
		Deliver: r.deliver,
		OnDrop: func(p netstack.Packet, reason netstack.DropReason) {
			medium.Metrics().CountTx("drop_"+string(reason), 1)
		},
	}
	return r
}

// ID returns the robot's address.
func (r *Robot) ID() radio.NodeID { return r.id }

// Pos returns the robot's current (interpolated) position.
func (r *Robot) Pos() geom.Point {
	if !r.moving {
		return r.anchor
	}
	elapsed := float64(r.sched.Now().Sub(r.anchorTime))
	d := r.cfg.Speed * elapsed
	total := r.anchor.Dist(r.dest)
	if d >= total {
		return r.dest
	}
	return r.anchor.Add(r.anchor.Unit(r.dest).Scale(d))
}

// Traveled reports the robot's cumulative travel distance.
func (r *Robot) Traveled() float64 { return r.traveled }

// QueueLen reports the number of queued (not yet started) tasks.
func (r *Robot) QueueLen() int { return len(r.queue) }

// Busy reports whether the robot is executing a task.
func (r *Robot) Busy() bool { return r.current != nil }

// Seq returns the robot's current location-update sequence number.
func (r *Robot) Seq() uint64 { return r.seq }

// Cargo reports the replacement nodes on board (-1 means unlimited).
func (r *Robot) Cargo() int { return r.cargo }

// Restocks reports how many depot reload trips the robot has made.
func (r *Robot) Restocks() int { return r.restocks }

// ReplayRejected reports how many peer updates the StrictSeq guard
// rejected as stale.
func (r *Robot) ReplayRejected() uint64 { return r.replayRejected }

// Router exposes the robot's router (the central manager role reuses it).
func (r *Robot) Router() *netstack.Router { return r.router }

// RadioID implements radio.Station.
func (r *Robot) RadioID() radio.NodeID { return r.id }

// RadioPos implements radio.Station.
func (r *Robot) RadioPos() geom.Point { return r.Pos() }

// RadioRange implements radio.Station.
func (r *Robot) RadioRange() float64 { return r.cfg.Range }

// RadioActive implements radio.Station. Robots never fail in the paper's
// model; the resilience extension can kill them via FailNow.
func (r *Robot) RadioActive() bool { return !r.failed }

// RadioMobile implements radio.MobileStation: a robot's position
// interpolates along its travel leg between index updates, so the medium
// must poll RadioPos rather than trust its cached position.
func (r *Robot) RadioMobile() bool { return true }

// Alive reports whether the robot is operational.
func (r *Robot) Alive() bool { return !r.failed }

// FailNow breaks the robot down where it stands (resilience extension):
// it stops moving, abandons its queue, and falls silent. The paper's
// model never calls this.
func (r *Robot) FailNow() {
	if r.failed {
		return
	}
	r.settle(r.Pos())
	r.sched.Cancel(r.arriveEv)
	r.sched.Cancel(r.updateEv)
	r.sched.Cancel(r.takeoverEv)
	r.sched.Cancel(r.chargeEv)
	r.sched.Cancel(r.deathEv)
	r.relocating = false
	r.charging = false
	r.rechargeLeg = false
	if r.relTicker != nil {
		r.relTicker.Stop()
	}
	var stranded []Task
	if r.current != nil {
		stranded = append(stranded, *r.current)
	}
	stranded = append(stranded, r.queue...)
	r.current = nil
	r.queue = nil
	r.failed = true
	r.medium.SetActive(r.id, false)
	r.stranded = stranded
	if len(stranded) > 0 {
		r.medium.Metrics().Observe(metrics.SeriesStrandedTasks, float64(len(stranded)))
	}
	if r.hooks.OnFail != nil {
		r.hooks.OnFail(r, stranded)
	}
}

// Start attaches the robot to the medium and publishes its initial
// location (sequence 1) after initDelay, so sensors can learn their
// manager once the whole deployment is attached and announced.
func (r *Robot) Start(initDelay sim.Duration) {
	r.medium.Attach(r)
	r.sched.After(initDelay, r.publish)
	rel := r.cfg.Reliability
	if rel.Enabled() {
		r.mgrID = rel.Manager
		r.mgrLoc = rel.ManagerLoc
		r.lastMgrAck = r.sched.Now()
		t, err := r.sched.NewTicker(rel.HeartbeatPeriod, rel.HeartbeatPeriod, r.relTick)
		if err != nil {
			panic(err) // unreachable: Enabled() implies a positive period
		}
		r.relTicker = t
	}
	r.rearmDeathClock()
}

// HandleFrame implements radio.Station.
func (r *Robot) HandleFrame(f radio.Frame) {
	switch m := f.Payload.(type) {
	case netstack.Packet:
		r.router.Receive(m)
	case netstack.FloodMsg:
		// Robots hear each other's floods but do not relay them; only
		// sensors disseminate location updates (§3.2–3.3). The reliability
		// extension listens for takeovers and peer heartbeats.
		if r.cfg.Reliability.Enabled() && !r.failed {
			r.handleFloodRel(m)
		}
	case wire.RobotUpdate:
		// One-hop announce from a nearby robot (centralized mode).
		if r.cfg.Reliability.Enabled() && !r.failed {
			r.notePeer(m)
		}
	case wire.Beacon:
		// Sensor chatter is ignored in the paper's model; the reliability
		// extension treats a beacon from a queued task's site as proof the
		// site is alive (a blackout false positive, or an already-replaced
		// node) and drops the queued duplicate trip.
		if r.cfg.Reliability.Enabled() && !r.failed {
			r.dropQueuedAt(m.Loc)
		}
	case wire.LocationAnnounce:
		if r.cfg.Reliability.Enabled() && !r.failed {
			r.dropQueuedAt(m.Loc)
		}
	case wire.GuardianConfirm:
		// Robots ignore guardian chatter: their next hops come from radio
		// range (see netstack.MediumSource).
	default:
		_ = m
	}
}

// deliver handles packets addressed to this robot.
func (r *Robot) deliver(p netstack.Packet) {
	if r.failed {
		return
	}
	rel := r.cfg.Reliability.Enabled()
	switch m := p.Payload.(type) {
	case wire.FailureReport:
		if r.hooks.OnReportReceived != nil {
			r.hooks.OnReportReceived(m, p.Hops)
		}
		if rel {
			r.ackReport(m)
			if r.managing {
				r.dispatchAsManager(m)
				return
			}
		}
		r.Enqueue(Task{Failed: m.Failed, Loc: m.Loc, EnqueuedAt: r.sched.Now()})
	case wire.RepairRequest:
		if r.hooks.OnRequestReceived != nil {
			r.hooks.OnRequestReceived(m, p.Hops)
		}
		if rel {
			r.ackDispatch(m)
		}
		r.Enqueue(Task{Failed: m.Failed, Loc: m.Loc, EnqueuedAt: r.sched.Now()})
	case wire.HeartbeatAck:
		r.lastMgrAck = r.sched.Now()
	case wire.RobotUpdate:
		// Worker heartbeat unicast to this robot in its managing role:
		// track the worker and ack so it knows its manager is alive.
		if rel {
			r.notePeer(m)
			if r.managing && m.Robot != r.id {
				r.router.Originate(netstack.Packet{
					Dst:      m.Robot,
					DstLoc:   m.Loc,
					Category: metrics.CatAck,
					Payload:  wire.HeartbeatAck{Manager: r.id, Seq: m.Seq},
				})
			}
		}
	case wire.DispatchAck:
		if r.managing {
			if o, ok := r.outstanding[m.Failed]; ok && o.robot == m.Robot {
				o.acked = true
			}
		}
	case wire.RepairDone:
		if r.managing {
			delete(r.outstanding, m.Failed)
			delete(r.seen, m.Failed)
		}
	case wire.Relocate:
		if m.Robot == r.id {
			r.RelocateTo(m.Dest, m.Seq)
		}
	}
}

// RelocateTo starts an idle robot toward a standby location (facility-
// location coordination). The command is ignored while the robot is
// serving or queueing repairs — repairs always win — and stale commands
// (Seq not above the last accepted) are dropped so reordered or replayed
// frames cannot undo a newer placement; under StrictSeq the drop is
// counted in ReplayRejected.
func (r *Robot) RelocateTo(dest geom.Point, seq uint64) {
	if r.failed || r.current != nil || r.rechargeLeg || r.charging {
		return
	}
	if seq <= r.relocSeq {
		if r.cfg.StrictSeq {
			r.replayRejected++
		}
		return
	}
	r.relocSeq = seq
	r.interruptRelocation()
	start := r.Pos()
	if start.Dist(dest) == 0 {
		return
	}
	r.settle(start)
	r.relocFrom = start
	r.relocating = true
	r.dest = dest
	r.moving = true
	r.arriveEv = r.sched.After(sim.Duration(start.Dist(dest)/r.cfg.Speed), r.relocArrive)
	r.scheduleUpdate()
	r.rearmDeathClock()
}

// Relocations reports completed standby-relocation legs.
func (r *Robot) Relocations() int { return r.relocations }

// interruptRelocation abandons an in-flight relocation leg, accruing the
// distance actually covered. A no-op unless relocating, so the paper's
// algorithms never feel it.
func (r *Robot) interruptRelocation() {
	if !r.relocating {
		return
	}
	r.sched.Cancel(r.arriveEv)
	r.sched.Cancel(r.updateEv)
	r.traveled += r.relocFrom.Dist(r.Pos())
	r.relocating = false
}

// relocArrive completes a standby-relocation leg.
func (r *Robot) relocArrive() {
	if !r.relocating || r.failed {
		return
	}
	r.sched.Cancel(r.updateEv)
	r.traveled += r.relocFrom.Dist(r.dest)
	r.relocating = false
	r.relocations++
	r.settle(r.dest)
	r.publish()
}

// Enqueue adds a repair task; the robot serves tasks first-come-first-
// served (§3.1). Failed robots discard tasks. With the reliability
// extension on, retransmitted or multiply-reported failures are
// deduplicated by failed-node ID.
func (r *Robot) Enqueue(t Task) {
	if r.failed {
		return
	}
	if r.seen != nil {
		if r.seen[t.Failed] {
			return
		}
		r.seen[t.Failed] = true
	}
	r.enqueueTask(t)
}

// enqueueTask queues or starts a task, bypassing deduplication (used by
// the managing role, which marks the seen set itself). Tasks arriving
// during a recharge detour queue for after the top-up.
func (r *Robot) enqueueTask(t Task) {
	if r.current != nil || r.rechargeLeg || r.charging {
		r.queue = append(r.queue, t)
		return
	}
	r.begin(t)
}

func (r *Robot) begin(t Task) {
	if r.declinesForRecharge(t) {
		r.goRecharge(&t)
		return
	}
	r.interruptRelocation()
	r.current = &t
	start := r.Pos()
	r.taskFrom = start
	r.settle(start)
	dest := t.Loc
	if r.cargo == 0 {
		// Out of replacement nodes: detour to the depot first.
		r.restocking = true
		dest = r.cfg.Depot
	}
	dist := start.Dist(dest)
	if dist == 0 {
		r.arrive()
		return
	}
	r.dest = dest
	r.moving = true
	r.arriveEv = r.sched.After(sim.Duration(dist/r.cfg.Speed), r.arrive)
	r.scheduleUpdate()
	r.rearmDeathClock()
}

// settle fixes the robot's anchor at p with motion stopped. It is the
// universal motion-stop chokepoint, so the battery's lazy accrual hooks
// here: the interval since the last accrual is integrated at the power
// mode that was in force during it (the moving flag is still the leg's).
func (r *Robot) settle(p geom.Point) {
	if r.bat != nil {
		r.accrueEnergy()
	}
	if r.hooks.OnMove != nil {
		r.hooks.OnMove(r, r.anchor, r.anchorTime, p)
	}
	old := r.indexedPos
	r.anchor = p
	r.anchorTime = r.sched.Now()
	r.moving = false
	r.indexedPos = p
	if !old.Eq(p) {
		r.medium.Moved(r.id, old)
	}
	r.rearmDeathClock()
}

// scheduleUpdate arms the next 20 m location-update event for the current
// leg.
func (r *Robot) scheduleUpdate() {
	remaining := r.Pos().Dist(r.dest)
	if remaining <= r.cfg.UpdateThreshold {
		return // arrival will publish
	}
	r.updateEv = r.sched.After(sim.Duration(r.cfg.UpdateThreshold/r.cfg.Speed), func() {
		if !r.moving {
			return
		}
		r.reindex()
		r.publish()
		r.scheduleUpdate()
	})
}

// reindex pushes the robot's current interpolated position into the
// medium's spatial index (staleness stays under the 20 m threshold, well
// below the 63 m index cell, so range queries remain exact).
func (r *Robot) reindex() {
	old := r.indexedPos
	r.indexedPos = r.Pos()
	if r.hooks.OnMove != nil {
		r.hooks.OnMove(r, r.anchor, r.anchorTime, r.indexedPos)
	}
	if !old.Eq(r.indexedPos) {
		r.medium.Moved(r.id, old)
	}
}

// publish disseminates the robot's current location via the algorithm's
// update mode.
func (r *Robot) publish() {
	if r.failed {
		return
	}
	r.seq++
	load := len(r.queue)
	if r.current != nil {
		load++
	}
	up := wire.RobotUpdate{Robot: r.id, Loc: r.Pos(), Seq: r.seq, Load: load, Managing: r.managing}
	if r.managing {
		// A mobile manager floods its updates network-wide so every sensor
		// keeps a fresh route to it.
		r.medium.Send(radio.Frame{
			Src:      r.id,
			Dst:      radio.IDBroadcast,
			Category: metrics.CatLocUpdate,
			Payload: netstack.FloodMsg{
				Origin:   r.id,
				Seq:      r.seq,
				Category: metrics.CatLocUpdate,
				Payload:  up,
				TTL:      r.cfg.Reliability.floodTTL(),
			},
		})
	} else {
		r.mode.Publish(r, up)
	}
	if r.hooks.OnPublish != nil {
		r.hooks.OnPublish(r, up)
	}
}

// arrive completes the current travel leg: a depot restock detour or the
// task itself.
func (r *Robot) arrive() {
	t := r.current
	if t == nil {
		return
	}
	r.sched.Cancel(r.updateEv)
	if r.restocking {
		dist := r.taskFrom.Dist(r.cfg.Depot)
		r.traveled += dist
		r.settle(r.cfg.Depot)
		r.publish()
		r.restocking = false
		r.cargo = r.cfg.Cargo
		r.restocks++
		r.medium.Metrics().Observe("restock_leg_m", dist)
		// Resume the pending task from the depot.
		task := *t
		r.current = nil
		r.begin(task)
		return
	}
	dist := r.taskFrom.Dist(t.Loc)
	r.traveled += dist
	r.settle(t.Loc)
	if r.cfg.ServiceTime > 0 {
		r.sched.After(r.cfg.ServiceTime, func() { r.finish(*t, dist) })
		return
	}
	r.finish(*t, dist)
}

func (r *Robot) finish(t Task, dist float64) {
	if r.failed {
		return // broke down during the service interval
	}
	if r.hooks.SpawnReplacement != nil {
		r.hooks.SpawnReplacement(r, t.Loc)
	}
	if r.cargo > 0 {
		r.cargo--
	}
	if r.hooks.OnTaskDone != nil {
		r.hooks.OnTaskDone(r, t, dist, r.sched.Now().Sub(t.EnqueuedAt))
	}
	reg := r.medium.Metrics()
	reg.Observe(metrics.SeriesTravelPerFailure, dist)
	reg.Observe(metrics.SeriesRepairDelay, float64(r.sched.Now().Sub(t.EnqueuedAt)))
	reg.Observe(metrics.SeriesQueueLength, float64(len(r.queue)))
	if r.seen != nil {
		// The site is repaired: a genuine re-failure there may be reported
		// (and served) anew.
		delete(r.seen, t.Failed)
		r.reportDone(t.Failed)
	}
	r.current = nil
	if len(r.queue) == 0 {
		// Arrival update (§3: "After replacing a failed node, the
		// maintainer robot may need to update the manager or some sensors
		// with its new location") — published after completion so the
		// Load field reflects the drained queue.
		r.rearmDeathClock() // idle now: the clock may switch to threshold mode
		r.publish()
		return
	}
	r.begin(r.nextQueued())
	r.publish() // arrival update, with the next task already counted in Load
}

// nextQueued pops the next task under the configured queue policy.
func (r *Robot) nextQueued() Task {
	idx := 0
	if r.cfg.Queue == NearestFirst {
		here := r.Pos()
		for i := 1; i < len(r.queue); i++ {
			if r.queue[i].Loc.Dist2(here) < r.queue[idx].Loc.Dist2(here) {
				idx = i
			}
		}
	}
	next := r.queue[idx]
	r.queue = append(r.queue[:idx], r.queue[idx+1:]...)
	return next
}
