package robot

import (
	"cmp"
	"slices"

	"roborepair/internal/checkpoint"
	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// BookConfig is what a dispatch book's owner fixes about it: who the
// manager is and where it stands, how it talks, and how long silence and
// unacknowledged requests are tolerated.
type BookConfig struct {
	// Self is the managing station's address, stamped on every request.
	Self radio.NodeID
	// Pos is the managing station's current position, stamped on every
	// request so the worker's ack can be routed back (fixed for the static
	// manager, moving for a robot that took the role over).
	Pos func() geom.Point
	// Router carries requests and acks.
	Router *netstack.Router
	// Liveness times silence and acks. Its zero value turns the
	// reliability machinery off (the paper's model): every tracked robot
	// is live, requests carry no issuer, and nothing is ledgered.
	Liveness Liveness
	// StrictSeq rejects location updates whose Seq is below the last one
	// accepted for that robot (hostile-channel defense: a replayed update
	// must not roll a position back). Equal Seq is an idempotent duplicate
	// and passes.
	StrictSeq bool
	// OnRequestIssued fires when a repair request is first dispatched.
	OnRequestIssued func(req wire.RepairRequest, to radio.NodeID)
	// OnRedispatch fires when an outstanding request is re-issued.
	OnRedispatch func(req wire.RepairRequest, to radio.NodeID, attempt int)
}

// FleetEntry is a dispatch book's view of one maintenance robot.
type FleetEntry struct {
	ID    radio.NodeID
	Loc   geom.Point
	Load  int
	Seq   uint64
	Heard sim.Time
}

// dispatch is a repair request the book has issued and not yet seen
// completed. robot is 0 while no live robot could take it.
type dispatch struct {
	req      wire.RepairRequest
	robot    radio.NodeID
	lastSent sim.Time
	attempts int
	acked    bool
}

// Book is a manager's dispatch book, shared by the two kinds of manager:
// the static central station (core.Manager) and a robot that took the role
// over after the station died. It holds the fleet table, the dedup set of
// failed nodes already dispatched, and the ledger of outstanding requests
// with its ack-timeout backoff, and it sends the manager's acks. What
// differs between the two owners — how a robot is picked, and what happens
// to a request the manager keeps for itself — is passed in.
type Book struct {
	BookConfig
	fleet          []FleetEntry // ascending ID
	seen           map[radio.NodeID]bool
	ledger         []*dispatch // ascending failed ID
	replayRejected uint64
}

// NewBook returns an empty dispatch book.
func NewBook(cfg BookConfig) *Book { return &Book{BookConfig: cfg} }

func byID(e FleetEntry, id radio.NodeID) int { return cmp.Compare(e.ID, id) }

func byFailed(d *dispatch, failed radio.NodeID) int { return cmp.Compare(d.req.Failed, failed) }

// entry returns the fleet slot of robot id, or nil when untracked.
func (b *Book) entry(id radio.NodeID) *FleetEntry {
	if i, ok := slices.BinarySearchFunc(b.fleet, id, byID); ok {
		return &b.fleet[i]
	}
	return nil
}

// upsert stores e in the fleet table.
func (b *Book) upsert(e FleetEntry) {
	if i, ok := slices.BinarySearchFunc(b.fleet, e.ID, byID); ok {
		b.fleet[i] = e
	} else {
		b.fleet = slices.Insert(b.fleet, i, e)
	}
}

// Track primes the fleet table with a robot's position (registration
// during initialization); its load and sequence start from zero.
func (b *Book) Track(id radio.NodeID, loc geom.Point, now sim.Time) {
	b.upsert(FleetEntry{ID: id, Loc: loc, Heard: now})
}

// Note records a robot's location update, reporting false when the
// update is the manager's own or the StrictSeq guard rejects it.
func (b *Book) Note(up wire.RobotUpdate, now sim.Time) bool {
	if up.Robot == b.Self {
		return false
	}
	if e := b.entry(up.Robot); b.StrictSeq && e != nil && up.Seq < e.Seq {
		b.replayRejected++
		return false
	}
	b.upsert(FleetEntry{ID: up.Robot, Loc: up.Loc, Load: up.Load, Seq: up.Seq, Heard: now})
	return true
}

// ReplayRejected reports how many updates the StrictSeq guard rejected.
// A nil book has rejected none.
func (b *Book) ReplayRejected() uint64 {
	if b == nil {
		return 0
	}
	return b.replayRejected
}

// Fleet returns the tracked robots in ascending ID order. The slice is
// the book's own; callers must not modify it.
func (b *Book) Fleet() []FleetEntry { return b.fleet }

// Loc returns robot id's last known location (the origin when untracked).
func (b *Book) Loc(id radio.NodeID) geom.Point {
	if e := b.entry(id); e != nil {
		return e.Loc
	}
	return geom.Point{}
}

// Live reports whether robot id is tracked and, with the reliability
// machinery on, was heard from recently enough to count as alive.
func (b *Book) Live(id radio.NodeID, now sim.Time) bool {
	e := b.entry(id)
	return e != nil && b.fresh(e, now)
}

func (b *Book) fresh(e *FleetEntry, now sim.Time) bool {
	return !b.Liveness.Enabled() || e.Heard >= now.Sub(b.Liveness.deadAfter())
}

// Best returns the live robot with the lowest score and that score; ties
// go to the lowest ID. ok is false when no robot is live.
func (b *Book) Best(now sim.Time, score func(e FleetEntry) float64) (id radio.NodeID, best float64, ok bool) {
	for i := range b.fleet {
		e := &b.fleet[i]
		if !b.fresh(e, now) {
			continue
		}
		if s := score(*e); !ok || s < best {
			id, best, ok = e.ID, s, true
		}
	}
	return id, best, ok
}

// MarkSeen adds a failed node to the dedup set, reporting false when it
// was already there.
func (b *Book) MarkSeen(failed radio.NodeID) bool {
	if b.seen[failed] {
		return false
	}
	if b.seen == nil {
		b.seen = make(map[radio.NodeID]bool)
	}
	b.seen[failed] = true
	return true
}

// Unsee removes a failed node from the dedup set, so a later genuine
// failure there is accepted again. A nil book has nothing to remove.
func (b *Book) Unsee(failed radio.NodeID) {
	if b != nil {
		delete(b.seen, failed)
	}
}

// Request builds the repair request for a report. With the reliability
// machinery on it names the manager and its position, so the worker's
// ack reaches the actual issuer.
func (b *Book) Request(rep wire.FailureReport, now sim.Time) wire.RepairRequest {
	req := wire.RepairRequest{Failed: rep.Failed, Loc: rep.Loc, IssuedAt: now}
	if b.Liveness.Enabled() {
		req.Manager, req.ManagerLoc = b.Self, b.Pos()
	}
	return req
}

// Issue dispatches req to robot to, ledgering it when the reliability
// machinery is on.
func (b *Book) Issue(req wire.RepairRequest, to radio.NodeID, now sim.Time) {
	if b.OnRequestIssued != nil {
		b.OnRequestIssued(req, to)
	}
	if b.Liveness.Enabled() {
		b.put(&dispatch{req: req, robot: to, lastSent: now, attempts: 1})
	}
	b.send(to, req)
}

// Hold ledgers a request no live robot can take yet: responsibility is
// already acknowledged to the reporter, so it waits for one to appear.
func (b *Book) Hold(req wire.RepairRequest, now sim.Time) {
	if b.Liveness.Enabled() {
		b.put(&dispatch{req: req, lastSent: now})
	}
}

// Ack marks an outstanding request acknowledged, when the ack comes from
// the robot it was last sent to.
func (b *Book) Ack(robot, failed radio.NodeID) {
	if d := b.lookup(failed); d != nil && d.robot == robot {
		d.acked = true
	}
}

// Done retires a completed request: its ledger entry and its dedup mark.
func (b *Book) Done(failed radio.NodeID) {
	b.drop(failed)
	delete(b.seen, failed)
}

// Retire retires every outstanding request that match selects, as Done
// does.
func (b *Book) Retire(match func(req wire.RepairRequest) bool) {
	b.ledger = slices.DeleteFunc(b.ledger, func(d *dispatch) bool {
		if !match(d.req) {
			return false
		}
		delete(b.seen, d.req.Failed)
		return true
	})
}

// Redispatch re-issues, in ascending failed-ID order, every outstanding
// request whose robot went silent or that stayed unacknowledged past its
// timeout (DispatchAckTimeout, doubled per attempt up to 8x). pick
// chooses the new robot; ok=false keeps the request waiting unchanged. A
// request picked for Self leaves the ledger (its dedup mark stays) and
// goes to keep.
func (b *Book) Redispatch(now sim.Time, pick func(loc geom.Point, now sim.Time) (radio.NodeID, bool), keep func(req wire.RepairRequest)) {
	for _, d := range slices.Clone(b.ledger) { // keep may drop d
		timeout := b.Liveness.DispatchAckTimeout * sim.Duration(uint64(1)<<uint(min(max(d.attempts-1, 0), 3)))
		if b.Live(d.robot, now) && (d.acked || now.Sub(d.lastSent) < timeout) {
			continue
		}
		to, ok := pick(d.req.Loc, now)
		if !ok {
			continue
		}
		d.attempts++
		if b.OnRedispatch != nil {
			b.OnRedispatch(d.req, to, d.attempts)
		}
		if to == b.Self {
			b.drop(d.req.Failed)
			keep(d.req)
			continue
		}
		d.robot, d.lastSent, d.acked = to, now, false
		d.req.Manager, d.req.ManagerLoc = b.Self, b.Pos()
		b.send(to, d.req)
	}
}

// AckReport routes an ack back to a reporting guardian so it stops
// retransmitting. Reports without a sequence number expect no ack.
func (b *Book) AckReport(rep wire.FailureReport) {
	if rep.Seq == 0 || rep.Reporter == 0 {
		return
	}
	b.Router.Originate(netstack.Packet{
		Dst:      rep.Reporter,
		DstLoc:   rep.ReporterLoc,
		Category: metrics.CatAck,
		Payload:  wire.ReportAck{Reporter: rep.Reporter, Failed: rep.Failed, Seq: rep.Seq},
	})
}

// AckHeartbeat acknowledges a robot's location update so the robot can
// detect the manager's death by silence.
func (b *Book) AckHeartbeat(up wire.RobotUpdate) {
	b.Router.Originate(netstack.Packet{
		Dst:      up.Robot,
		DstLoc:   up.Loc,
		Category: metrics.CatAck,
		Payload:  wire.HeartbeatAck{Manager: b.Self, Seq: up.Seq},
	})
}

// send routes req to robot to at its last known location.
func (b *Book) send(to radio.NodeID, req wire.RepairRequest) {
	b.Router.Originate(netstack.Packet{
		Dst:      to,
		DstLoc:   b.Loc(to),
		Category: metrics.CatRepairRequest,
		Payload:  req,
	})
}

func (b *Book) lookup(failed radio.NodeID) *dispatch {
	if i, ok := slices.BinarySearchFunc(b.ledger, failed, byFailed); ok {
		return b.ledger[i]
	}
	return nil
}

// put stores d in the ledger, replacing any entry for the same node.
func (b *Book) put(d *dispatch) {
	if i, ok := slices.BinarySearchFunc(b.ledger, d.req.Failed, byFailed); ok {
		b.ledger[i] = d
	} else {
		b.ledger = slices.Insert(b.ledger, i, d)
	}
}

// drop removes a ledger entry, leaving the dedup mark.
func (b *Book) drop(failed radio.NodeID) {
	if i, ok := slices.BinarySearchFunc(b.ledger, failed, byFailed); ok {
		b.ledger = slices.Delete(b.ledger, i, i+1)
	}
}

// AppendState serializes the book in canonical order (checkpoint section
// payload): the replay counter, the fleet table, the dedup set, then the
// ledger. A nil book encodes as an empty one.
func (b *Book) AppendState(buf []byte) []byte {
	if b == nil {
		b = &Book{}
	}
	buf = checkpoint.AppendU64(buf, b.replayRejected)
	buf = checkpoint.AppendU32(buf, uint32(len(b.fleet)))
	for _, e := range b.fleet {
		buf = checkpoint.AppendI64(buf, int64(e.ID))
		buf = checkpoint.AppendF64(buf, e.Loc.X)
		buf = checkpoint.AppendF64(buf, e.Loc.Y)
		buf = checkpoint.AppendI64(buf, int64(e.Load))
		buf = checkpoint.AppendU64(buf, e.Seq)
		buf = checkpoint.AppendF64(buf, float64(e.Heard))
	}
	seen := make([]radio.NodeID, 0, len(b.seen))
	for id := range b.seen {
		seen = append(seen, id)
	}
	slices.Sort(seen)
	buf = checkpoint.AppendU32(buf, uint32(len(seen)))
	for _, id := range seen {
		buf = checkpoint.AppendI64(buf, int64(id))
	}
	buf = checkpoint.AppendU32(buf, uint32(len(b.ledger)))
	for _, d := range b.ledger {
		buf = checkpoint.AppendI64(buf, int64(d.req.Failed))
		buf = checkpoint.AppendF64(buf, d.req.Loc.X)
		buf = checkpoint.AppendF64(buf, d.req.Loc.Y)
		buf = checkpoint.AppendF64(buf, float64(d.req.IssuedAt))
		buf = checkpoint.AppendI64(buf, int64(d.req.Manager))
		buf = checkpoint.AppendF64(buf, d.req.ManagerLoc.X)
		buf = checkpoint.AppendF64(buf, d.req.ManagerLoc.Y)
		buf = checkpoint.AppendI64(buf, int64(d.robot))
		buf = checkpoint.AppendF64(buf, float64(d.lastSent))
		buf = checkpoint.AppendI64(buf, int64(d.attempts))
		buf = checkpoint.AppendBool(buf, d.acked)
	}
	return buf
}
