// Package node implements sensor-node behaviour: boot-time location
// announcement, periodic beaconing, guardian/guardee failure detection,
// neighbor-table maintenance, myrobot tracking, and the relaying of robot
// location-update floods according to a per-algorithm Policy.
package node

import (
	"sort"

	"roborepair/internal/broadcastopt"
	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// Policy is the algorithm-specific part of sensor behaviour. The three
// coordination algorithms differ only in how sensors choose their failure
// report target ("myrobot"/manager) and which robot location updates they
// relay.
type Policy interface {
	// Consider processes a robot location update heard by s. It may adopt
	// the robot as s's report target and reports whether s relays the
	// flood onward.
	Consider(s *Sensor, up wire.RobotUpdate) (relay bool)
	// GuardianOK reports whether a sensor at guardee may pick a sensor at
	// guardian as its guardian (the fixed algorithm restricts the pair to
	// one subarea).
	GuardianOK(guardee, guardian geom.Point) bool
}

// Config carries the sensor parameters of the paper's setup (§4.1).
type Config struct {
	// Range is the sensor transmission range in meters (63 in the paper).
	Range float64
	// BeaconPeriod is the failure-detection heartbeat period (10 s).
	BeaconPeriod sim.Duration
	// MissedBeacons is how many silent periods declare a failure (3).
	MissedBeacons int
	// SettleDelay is how long after boot a sensor waits before selecting
	// its guardian, leaving time for location announcements to arrive.
	SettleDelay sim.Duration
	// FloodTTL caps controlled-flood relaying (safety bound; the relay
	// predicate is the real scope limit).
	FloodTTL int
	// EfficientBroadcast enables the §4.3.2 relay-set optimization: each
	// relaying sensor designates at most six angular-sector forwarders
	// instead of letting every neighbor relay.
	EfficientBroadcast bool
	// StrictSeq rejects robot updates whose Seq is below the last accepted
	// one for that robot (hostile-channel defense: stale replays must not
	// roll robot positions back). Off by default — on a benign medium
	// multi-path flood relaying genuinely reorders updates, and acting on
	// the freshest-heard value reproduces the paper's behaviour.
	StrictSeq bool
	// Reliability configures the report-retransmission extension. The
	// zero value reproduces the paper's fire-and-forget behaviour.
	Reliability Reliability
}

// Hooks lets the experiment runner observe sensor-level events without
// coupling the node to the scenario package.
type Hooks struct {
	// OnReportSent fires when a guardian originates a failure report.
	OnReportSent func(rep wire.FailureReport)
	// OnReportDropped fires when a report packet is discarded in the
	// network with this sensor as a relay.
	OnReportDropped func(p netstack.Packet, reason netstack.DropReason)
	// OnReportRetx fires when a guardian retransmits an unacknowledged
	// report; attempt counts transmissions so far.
	OnReportRetx func(rep wire.FailureReport, attempt int)
	// OnReportAbandoned fires when a report exhausts its retry budget.
	OnReportAbandoned func(rep wire.FailureReport)
	// OnReportAcked fires when this sensor accepts an ack addressed to one
	// of its own reports (before the pending-report lookup, so acks for
	// already-cleared reports are observed too).
	OnReportAcked func(ack wire.ReportAck)
}

type guardee struct {
	id        radio.NodeID
	loc       geom.Point
	lastHeard sim.Time
}

// robotTrack is the last accepted state for a known robot or manager.
// Robot IDs are small and dense, so tracks live in an ID-indexed slice:
// the per-tick scans walk contiguous memory instead of hashing map keys.
type robotTrack struct {
	loc   geom.Point
	seq   uint64
	heard sim.Time // last reception (expiry bookkeeping)
	known bool
}

// Sensor is one static sensor node.
type Sensor struct {
	id     radio.NodeID
	pos    geom.Point
	cfg    Config
	policy Policy
	hooks  Hooks

	medium *radio.Medium
	sched  *sim.Scheduler

	alive bool
	// beacon is the sensor's beacon payload, boxed once: a sensor never
	// moves, so every beacon it sends carries the same value, and reusing
	// the interface keeps the 10 s heartbeat allocation-free.
	beacon  any
	table   *netstack.NeighborTable
	router  *netstack.Router
	flooder *netstack.Flooder
	ticker  *sim.Ticker

	guardian     radio.NodeID // 0 when none
	lastGuardian sim.Time
	guardees     []guardee // ID-ascending; a sensor guards at most a handful

	target    radio.NodeID // failure report destination
	targetLoc geom.Point
	robots    []robotTrack // known robots/managers by NodeID (never guardians)

	// replayRejected counts robot updates dropped by the StrictSeq guard.
	replayRejected uint64

	// Reliability-extension state (inert at the zero Reliability config).
	reportSeq   uint64
	pending     map[uint64]*pendingReport // unacked reports by Seq
	lastFrameAt sim.Time                  // last frame heard at all (deafness detection)
	manager     radio.NodeID              // current manager, exempt from expiry
}

var _ radio.Station = (*Sensor)(nil)

// NewSensor constructs a sensor; call Start to boot it.
func NewSensor(id radio.NodeID, pos geom.Point, cfg Config, policy Policy, medium *radio.Medium, hooks Hooks) *Sensor {
	s := &Sensor{
		id:      id,
		pos:     pos,
		cfg:     cfg,
		policy:  policy,
		hooks:   hooks,
		medium:  medium,
		sched:   medium.Scheduler(),
		alive:   true,
		beacon:  wire.Beacon{From: id, Loc: pos},
		table:   netstack.NewNeighborTable(),
		flooder: netstack.NewFlooder(),
		manager: cfg.Reliability.Manager,
	}
	if cfg.Reliability.RetryEnabled() {
		s.pending = make(map[uint64]*pendingReport)
	}
	s.router = &netstack.Router{
		ID:      id,
		Pos:     func() geom.Point { return s.pos },
		Range:   func() float64 { return s.cfg.Range },
		Medium:  medium,
		Source:  netstack.TableSource{Table: s.table},
		Deliver: s.deliverPacket,
		OnDrop: func(p netstack.Packet, r netstack.DropReason) {
			s.medium.Metrics().CountTx("drop_"+string(r), 1)
			if s.hooks.OnReportDropped != nil {
				s.hooks.OnReportDropped(p, r)
			}
		},
	}
	return s
}

// ID returns the sensor's address.
func (s *Sensor) ID() radio.NodeID { return s.id }

// Pos returns the sensor's (fixed) location.
func (s *Sensor) Pos() geom.Point { return s.pos }

// Alive reports whether the sensor is operational.
func (s *Sensor) Alive() bool { return s.alive }

// Location implements failure.Failable.
func (s *Sensor) Location() geom.Point { return s.pos }

// Target returns the sensor's current failure-report destination.
func (s *Sensor) Target() (radio.NodeID, geom.Point) { return s.target, s.targetLoc }

// SetTarget sets the report destination ("myrobot" or the manager).
func (s *Sensor) SetTarget(id radio.NodeID, loc geom.Point) {
	s.target = id
	s.targetLoc = loc
}

// Guardian returns the sensor's current guardian (0 when none).
func (s *Sensor) Guardian() radio.NodeID { return s.guardian }

// Guardees returns the IDs this sensor currently guards, for tests.
func (s *Sensor) Guardees() []radio.NodeID {
	out := make([]radio.NodeID, 0, len(s.guardees))
	for i := range s.guardees {
		out = append(out, s.guardees[i].id)
	}
	return out
}

// robotAt returns the track of a known robot, or nil.
func (s *Sensor) robotAt(id radio.NodeID) *robotTrack {
	if id < 0 || int(id) >= len(s.robots) || !s.robots[id].known {
		return nil
	}
	return &s.robots[id]
}

// robotSlot grows the track table as needed and returns id's slot.
func (s *Sensor) robotSlot(id radio.NodeID) *robotTrack {
	if int(id) >= len(s.robots) {
		grown := make([]robotTrack, id+1)
		copy(grown, s.robots)
		s.robots = grown
	}
	return &s.robots[id]
}

// guardeeAt returns the index of id in the guardee list, or -1.
func (s *Sensor) guardeeAt(id radio.NodeID) int {
	for i := range s.guardees {
		if s.guardees[i].id == id {
			return i
		}
	}
	return -1
}

// upsertGuardee inserts or refreshes a guardee, keeping the list
// ID-ascending so the per-tick liveness scan is reproducible without
// sorting.
func (s *Sensor) upsertGuardee(id radio.NodeID, loc geom.Point, now sim.Time) {
	i := sort.Search(len(s.guardees), func(i int) bool { return s.guardees[i].id >= id })
	if i < len(s.guardees) && s.guardees[i].id == id {
		s.guardees[i] = guardee{id: id, loc: loc, lastHeard: now}
		return
	}
	s.guardees = append(s.guardees, guardee{})
	copy(s.guardees[i+1:], s.guardees[i:])
	s.guardees[i] = guardee{id: id, loc: loc, lastHeard: now}
}

// Table exposes the neighbor table (used by tests and diagnostics).
func (s *Sensor) Table() *netstack.NeighborTable { return s.table }

// KnowsRobot reports the last location the sensor heard for a robot.
func (s *Sensor) KnowsRobot(id radio.NodeID) (geom.Point, bool) {
	if tr := s.robotAt(id); tr != nil {
		return tr.loc, true
	}
	return geom.Point{}, false
}

// ReplayRejected reports how many robot updates the StrictSeq guard
// rejected as stale.
func (s *Sensor) ReplayRejected() uint64 { return s.replayRejected }

// ClosestKnownRobot returns the robot closest to this sensor according to
// the last-heard locations, resolving ties by lowest ID for determinism
// (the walk is ID-ascending, so a strict improvement test keeps the
// lowest ID on ties).
func (s *Sensor) ClosestKnownRobot() (radio.NodeID, geom.Point, bool) {
	var bestID radio.NodeID
	var bestLoc geom.Point
	bestD := -1.0
	for id := range s.robots {
		tr := &s.robots[id]
		if !tr.known {
			continue
		}
		d := s.pos.Dist2(tr.loc)
		if bestD < 0 || d < bestD {
			bestID, bestLoc, bestD = radio.NodeID(id), tr.loc, d
		}
	}
	return bestID, bestLoc, bestD >= 0
}

// RadioID implements radio.Station.
func (s *Sensor) RadioID() radio.NodeID { return s.id }

// RadioPos implements radio.Station.
func (s *Sensor) RadioPos() geom.Point { return s.pos }

// RadioRange implements radio.Station.
func (s *Sensor) RadioRange() float64 { return s.cfg.Range }

// RadioActive implements radio.Station.
func (s *Sensor) RadioActive() bool { return s.alive }

// Start attaches the sensor to the medium and boots it: it announces its
// location (one-hop) after announceOffset — so that every station of the
// initial deployment is attached before the first announcement fires —
// schedules guardian selection after SettleDelay, and starts the beacon
// ticker with the given phase offset.
//
// replacement marks a node deployed by a robot mid-run; its announcement
// is counted as replacement traffic and prompts neighbors to beacon back.
func (s *Sensor) Start(announceOffset, beaconOffset sim.Duration, replacement bool) {
	s.medium.Attach(s)
	cat := metrics.CatInit
	if replacement {
		cat = metrics.CatReplacement
	}
	s.sched.After(announceOffset, func() {
		if !s.alive {
			return
		}
		s.medium.Send(radio.Frame{
			Src:      s.id,
			Dst:      radio.IDBroadcast,
			Category: cat,
			Payload:  wire.LocationAnnounce{From: s.id, Loc: s.pos, Replacement: replacement},
		})
	})
	s.sched.After(s.cfg.SettleDelay, s.selectGuardian)
	t, err := s.sched.NewTicker(beaconOffset, s.cfg.BeaconPeriod, s.tick)
	if err != nil {
		// Unreachable: BeaconPeriod is validated by the scenario config.
		panic(err)
	}
	s.ticker = t
}

// FailNow implements failure.Failable: the sensor goes silent immediately.
func (s *Sensor) FailNow() {
	if !s.alive {
		return
	}
	s.alive = false
	s.medium.SetActive(s.id, false)
	if s.ticker != nil {
		s.ticker.Stop()
	}
	for _, p := range s.pending {
		s.sched.Cancel(p.ev) // dead guardians stop retransmitting
	}
	s.pending = nil
}

// tick sends the periodic beacon and runs the failure-detection checks.
func (s *Sensor) tick() {
	if !s.alive {
		return
	}
	now := s.sched.Now()
	s.medium.Send(radio.Frame{
		Src:      s.id,
		Dst:      radio.IDBroadcast,
		Category: metrics.CatBeacon,
		Payload:  s.beacon,
	})

	deadline := now.Sub(s.cfg.BeaconPeriod * sim.Duration(s.cfg.MissedBeacons))

	// Guardee liveness: a silent guardee has failed — report it. The
	// guardee list is ID-ascending, so runs are reproducible.
	var failed []guardee
	kept := s.guardees[:0]
	for _, g := range s.guardees {
		if g.lastHeard < deadline {
			failed = append(failed, g)
		} else {
			kept = append(kept, g)
		}
	}
	s.guardees = kept
	for _, g := range failed {
		s.table.Remove(g.id)
		if s.cfg.Reliability.RetryEnabled() {
			// Confirmation grace: hold the report for two beacon periods.
			// A guardee that was merely silenced (a radio blackout lifting
			// makes every neighbor look 1000s-dead at once) beacons within
			// one period and cancels the false report before any traffic;
			// a real failure is reported 2 periods later — noise against
			// repair delays.
			s.reportAfter(g.id, g.loc, now, 2*s.cfg.BeaconPeriod)
		} else {
			s.report(g.id, g.loc, now)
		}
	}

	// Guardian liveness: a silent guardian is replaced, not reported
	// (its own guardian reports it).
	if s.guardian != 0 && s.lastGuardian < deadline {
		s.table.Remove(s.guardian)
		s.guardian = 0
		s.selectGuardian()
	}

	// Neighbor watch (reliability extension): collect the silent
	// non-robot neighbors about to be purged — each will be reported, not
	// just forgotten, closing the guardian scheme's blind spot (a guardian
	// dying inside its guardee's detection window strands the guardee).
	var watch []netstack.Neighbor
	if s.cfg.Reliability.NeighborWatch {
		for _, n := range s.table.All() {
			if n.LastHeard >= deadline {
				continue
			}
			if s.robotAt(n.ID) == nil {
				watch = append(watch, n)
			}
		}
	}

	// Purge other stale neighbors so routing never picks a dead relay.
	// Robots are exempt: they beacon on their own schedule (location
	// updates), and purging them would orphan the last-hop delivery.
	for _, id := range s.table.Purge(deadline) {
		if tr := s.robotAt(id); tr != nil {
			if s.pos.Dist(tr.loc) <= s.cfg.Range {
				s.table.Upsert(id, tr.loc, now)
			}
		}
	}
	for _, n := range watch {
		s.reportAfter(n.ID, n.Loc, now, s.cfg.Reliability.WatchGrace)
	}

	// Expire dead robots so reports chase survivors, not ghosts.
	if s.cfg.Reliability.RobotExpiry > 0 {
		s.expireRobots(now)
	}
}

// selectGuardian picks the nearest alive neighbor permitted by the policy
// and confirms the relationship.
func (s *Sensor) selectGuardian() {
	if !s.alive || s.guardian != 0 {
		return
	}
	var chosen *netstack.Neighbor
	for _, n := range s.table.All() {
		if s.robotAt(n.ID) != nil || !s.policy.GuardianOK(s.pos, n.Loc) {
			continue
		}
		if chosen == nil || n.Loc.Dist2(s.pos) < chosen.Loc.Dist2(s.pos) {
			n := n
			chosen = &n
		}
	}
	if chosen == nil {
		return // isolated sensor: unguarded, as in the paper's model
	}
	s.guardian = chosen.ID
	s.lastGuardian = s.sched.Now()
	s.medium.Send(radio.Frame{
		Src:      s.id,
		Dst:      chosen.ID,
		Category: metrics.CatInit,
		Payload:  wire.GuardianConfirm{From: s.id, Loc: s.pos},
	})
}

// report originates a failure report toward the sensor's current target.
// With retransmission enabled the report is numbered, tracked, and re-sent
// with capped exponential backoff until acked or observed repaired.
func (s *Sensor) report(failed radio.NodeID, loc geom.Point, now sim.Time) {
	rep := wire.FailureReport{Failed: failed, Loc: loc, Reporter: s.id, DetectedAt: now}
	if s.cfg.Reliability.RetryEnabled() {
		s.reportSeq++
		rep.Seq = s.reportSeq
		rep.ReporterLoc = s.pos
		p := &pendingReport{rep: rep}
		s.pending[rep.Seq] = p
		s.sendReport(p)
		return
	}
	if s.target == 0 {
		return // no known manager: the failure goes unreported
	}
	if s.hooks.OnReportSent != nil {
		s.hooks.OnReportSent(rep)
	}
	s.router.Originate(netstack.Packet{
		Dst:      s.target,
		DstLoc:   s.targetLoc,
		Category: metrics.CatFailureReport,
		Payload:  rep,
	})
}

// HandleFrame implements radio.Station.
func (s *Sensor) HandleFrame(f radio.Frame) {
	if !s.alive {
		return
	}
	now := s.sched.Now()
	if s.cfg.Reliability.RetryEnabled() {
		// Deafness resync: a sensor that heard no frame at all for a full
		// detection window was cut off (e.g. a regional radio blackout), so
		// every silence verdict formed in the gap is suspect. Re-grant the
		// unacked pending reports a confirmation grace before accusing.
		deaf := s.cfg.BeaconPeriod * sim.Duration(s.cfg.MissedBeacons)
		if s.lastFrameAt > 0 && now.Sub(s.lastFrameAt) > deaf {
			s.resyncPendings()
		}
		s.lastFrameAt = now
	}
	switch m := f.Payload.(type) {
	case wire.Beacon:
		s.hearNeighbor(m.From, m.Loc, now)
		// A beacon from a reported location means the site is alive after
		// all: a blackout false positive resurfacing, or a replacement
		// whose boot announce this reporter missed.
		s.observeRepair(m.Loc)
	case wire.LocationAnnounce:
		s.hearNeighbor(m.From, m.Loc, now)
		if m.Replacement {
			// The repair happened: stop retransmitting reports for this
			// location even if the ack never arrived.
			s.observeRepair(m.Loc)
			// §4.2(a): answer a replacement node's boot broadcast with a
			// beacon so it can build its neighbor table.
			s.medium.Send(radio.Frame{
				Src:      s.id,
				Dst:      radio.IDBroadcast,
				Category: metrics.CatReplacement,
				Payload:  s.beacon,
			})
		}
	case wire.GuardianConfirm:
		s.upsertGuardee(m.From, m.Loc, now)
		s.hearNeighbor(m.From, m.Loc, now)
	case wire.RobotUpdate:
		// One-hop robot announce (centralized location update).
		s.noteRobot(m, now)
	case netstack.FloodMsg:
		s.handleFlood(m, now)
	case netstack.Packet:
		s.router.Receive(m)
	}
}

// hearNeighbor refreshes detection and routing state for a one-hop
// transmission from a sensor peer.
func (s *Sensor) hearNeighbor(from radio.NodeID, loc geom.Point, now sim.Time) {
	if s.pos.Dist(loc) <= s.cfg.Range {
		// Only bidirectionally reachable peers are usable next hops.
		s.table.Upsert(from, loc, now)
	}
	if i := s.guardeeAt(from); i >= 0 {
		s.guardees[i].lastHeard = now
	}
	if from == s.guardian {
		s.lastGuardian = now
	}
}

// noteRobot records a robot's position and refreshes target/table state.
func (s *Sensor) noteRobot(up wire.RobotUpdate, now sim.Time) {
	if up.Robot < 0 {
		return // defensive: a slice-indexed track table cannot hold it
	}
	tr := s.robotSlot(up.Robot)
	if s.cfg.StrictSeq && tr.known && up.Seq < tr.seq {
		// Hostile channel: a replayed update would roll the robot's
		// position back. Equal Seq is an idempotent duplicate and passes.
		s.replayRejected++
		return
	}
	*tr = robotTrack{loc: up.Loc, seq: up.Seq, heard: now, known: true}
	if s.pos.Dist(up.Loc) <= s.cfg.Range {
		s.table.Upsert(up.Robot, up.Loc, now)
	} else {
		s.table.Remove(up.Robot)
	}
	if up.Robot == s.target {
		s.targetLoc = up.Loc
	}
}

// handleFlood applies duplicate suppression, lets the policy decide
// adoption/relaying, and rebroadcasts when appropriate.
func (s *Sensor) handleFlood(m netstack.FloodMsg, now sim.Time) {
	var relay bool
	switch pl := m.Payload.(type) {
	case wire.RobotUpdate:
		if !s.flooder.Fresh(m) {
			return
		}
		s.noteRobot(pl, now)
		relay = s.policy.Consider(s, pl)
		if pl.Managing && pl.Robot != s.manager {
			// A standing manager claim in a heartbeat: the fleet elected
			// this robot after a takeover. Sensors that missed the one-shot
			// takeover flood (blackout, late boot) converge here.
			s.adoptManager(wire.ManagerTakeover{Manager: pl.Robot, Loc: pl.Loc}, now)
			relay = true
		} else if s.manager != 0 && pl.Robot == s.manager {
			// A managing robot's flooded heartbeat: keep the route to the
			// post-takeover manager fresh everywhere, whatever the policy
			// thinks of ordinary robots.
			s.SetTarget(pl.Robot, pl.Loc)
			relay = true
		} else if !relay && s.cfg.Reliability.OrphanAdopt && s.target == 0 {
			// Orphaned sensor: adopt the closest robot it knows even when
			// the policy declines (fixed's cross-subarea fallback), and
			// relay so the flood sweeps the whole orphaned cell.
			if id, loc, ok := s.ClosestKnownRobot(); ok {
				s.SetTarget(id, loc)
				relay = true
			}
		}
	case wire.ManagerTakeover:
		if !s.flooder.Fresh(m) {
			return
		}
		s.adoptManager(pl, now)
		relay = true
	default:
		return
	}
	if !relay || m.TTL <= 1 {
		return
	}
	if !broadcastopt.Contains(m.Relays, s.id) {
		return // not a designated forwarder under efficient broadcast
	}
	var relays []radio.NodeID
	if s.cfg.EfficientBroadcast {
		relays = broadcastopt.SelectRelays(s.pos, s.table.All(), broadcastopt.DefaultSectors)
	}
	s.medium.Send(radio.Frame{
		Src:      s.id,
		Dst:      radio.IDBroadcast,
		Category: m.Category,
		Payload: netstack.FloodMsg{
			Origin:   m.Origin,
			Seq:      m.Seq,
			Category: m.Category,
			Payload:  m.Payload,
			Hops:     m.Hops + 1,
			TTL:      m.TTL - 1,
			Relays:   relays,
		},
	})
}
