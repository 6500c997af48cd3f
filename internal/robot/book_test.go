package robot

import (
	"reflect"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// noNeighbors is a routing source with nobody in range, so every packet
// the book originates ends in the router's OnDrop, where the test reads it.
type noNeighbors struct{}

func (noNeighbors) RoutingNeighbors() []netstack.Neighbor { return nil }

// bookRig is a dispatch book whose sends and hook calls are recorded.
type bookRig struct {
	book       *Book
	sent       []netstack.Packet
	issued     []radio.NodeID // failed IDs, in issue order
	redispatch []redispatchCall
}

type redispatchCall struct {
	failed, to radio.NodeID
	attempt    int
}

const bookSelf radio.NodeID = 100

func newBookRig(strict bool) *bookRig {
	g := &bookRig{}
	router := &netstack.Router{
		ID:     bookSelf,
		Pos:    func() geom.Point { return geom.Pt(-1e6, -1e6) },
		Range:  func() float64 { return 0 },
		Source: noNeighbors{},
		OnDrop: func(p netstack.Packet, _ netstack.DropReason) { g.sent = append(g.sent, p) },
	}
	g.book = NewBook(BookConfig{
		Self:      bookSelf,
		Pos:       func() geom.Point { return geom.Pt(500, 500) },
		Router:    router,
		Liveness:  Liveness{HeartbeatPeriod: 30, DispatchAckTimeout: 10}, // dead after 90 s
		StrictSeq: strict,
		OnRequestIssued: func(req wire.RepairRequest, _ radio.NodeID) {
			g.issued = append(g.issued, req.Failed)
		},
		OnRedispatch: func(req wire.RepairRequest, to radio.NodeID, attempt int) {
			g.redispatch = append(g.redispatch, redispatchCall{req.Failed, to, attempt})
		},
	})
	return g
}

// heartbeat records a location update from robot id at now.
func (g *bookRig) heartbeat(id radio.NodeID, seq uint64, now sim.Time) {
	g.book.Note(wire.RobotUpdate{Robot: id, Loc: geom.Pt(float64(id), 0), Seq: seq}, now)
}

// issue dispatches a request for failed to robot to at now.
func (g *bookRig) issue(failed, to radio.NodeID, now sim.Time) {
	rep := wire.FailureReport{Failed: failed, Loc: geom.Pt(float64(failed), 10)}
	g.book.Issue(g.book.Request(rep, now), to, now)
}

// always picks robot id for every request.
func always(id radio.NodeID) func(geom.Point, sim.Time) (radio.NodeID, bool) {
	return func(geom.Point, sim.Time) (radio.NodeID, bool) { return id, true }
}

func noKeep(req wire.RepairRequest) { panic("unexpected keep") }

func (g *bookRig) outstanding() []radio.NodeID {
	var out []radio.NodeID
	for _, d := range g.book.ledger {
		out = append(out, d.req.Failed)
	}
	return out
}

func TestBookDedup(t *testing.T) {
	steps := []struct {
		op     string // "mark" or "unsee"
		failed radio.NodeID
		want   bool // MarkSeen's result
	}{
		{"mark", 7, true},
		{"mark", 7, false},
		{"mark", 8, true},
		{"unsee", 7, false},
		{"mark", 7, true},
		{"mark", 8, false},
	}
	g := newBookRig(false)
	for i, s := range steps {
		switch s.op {
		case "mark":
			if got := g.book.MarkSeen(s.failed); got != s.want {
				t.Fatalf("step %d: MarkSeen(%d) = %v, want %v", i, s.failed, got, s.want)
			}
		case "unsee":
			g.book.Unsee(s.failed)
		}
	}
	var nilBook *Book
	nilBook.Unsee(7) // a robot without the reliability layer has no book
}

func TestBookRequestCarriesIssuerOnlyWhenReliable(t *testing.T) {
	g := newBookRig(false)
	rep := wire.FailureReport{Failed: 7, Loc: geom.Pt(3, 4)}
	req := g.book.Request(rep, 42)
	want := wire.RepairRequest{Failed: 7, Loc: geom.Pt(3, 4), IssuedAt: 42, Manager: bookSelf, ManagerLoc: geom.Pt(500, 500)}
	if req != want {
		t.Fatalf("reliable request = %+v, want %+v", req, want)
	}
	g.book.Liveness = Liveness{}
	if req := g.book.Request(rep, 42); req.Manager != 0 || !req.ManagerLoc.Eq(geom.Point{}) {
		t.Fatalf("paper-model request names its issuer: %+v", req)
	}
	g.book.Issue(req, 1, 42)
	g.book.Hold(req, 42)
	if len(g.book.ledger) != 0 {
		t.Fatalf("paper-model book ledgered %v", g.outstanding())
	}
}

func TestBookAckOnlyFromAssignedRobot(t *testing.T) {
	cases := []struct {
		name      string
		ackFrom   radio.NodeID
		ackFailed radio.NodeID
		wantRedis bool
	}{
		{"assigned robot", 1, 7, false},
		{"other robot", 2, 7, true},
		{"other request", 1, 8, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newBookRig(false)
			g.heartbeat(1, 1, 0)
			g.issue(7, 1, 0)
			g.book.Ack(tc.ackFrom, tc.ackFailed)
			g.heartbeat(1, 2, 50)
			g.book.Redispatch(50, always(1), noKeep)
			if got := len(g.redispatch) > 0; got != tc.wantRedis {
				t.Fatalf("redispatched = %v, want %v (%v)", got, tc.wantRedis, g.redispatch)
			}
		})
	}
}

func TestBookDoneRetiresLedgerAndSeen(t *testing.T) {
	g := newBookRig(false)
	g.heartbeat(1, 1, 0)
	for _, f := range []radio.NodeID{7, 8} {
		g.book.MarkSeen(f)
		g.issue(f, 1, 0)
	}
	g.book.Done(7)
	if got := g.outstanding(); !reflect.DeepEqual(got, []radio.NodeID{8}) {
		t.Fatalf("outstanding after Done(7) = %v, want [8]", got)
	}
	if !g.book.MarkSeen(7) {
		t.Fatal("Done(7) left 7 in the dedup set")
	}
	if g.book.MarkSeen(8) {
		t.Fatal("Done(7) cleared 8's dedup mark")
	}
	// Retire is Done for every matching request.
	g.book.Retire(func(req wire.RepairRequest) bool { return req.Failed == 8 })
	if len(g.book.ledger) != 0 || !g.book.MarkSeen(8) {
		t.Fatalf("Retire left ledger %v or the dedup mark", g.outstanding())
	}
}

// TestBookBackoffSchedule: an unacknowledged request to a live robot is
// re-sent after 1x, 2x, 4x, 8x, then 8x again of the ack timeout (10 s).
func TestBookBackoffSchedule(t *testing.T) {
	g := newBookRig(false)
	g.heartbeat(1, 1, 0)
	g.issue(7, 1, 0)
	var at []sim.Time
	for now := sim.Time(1); now <= 240; now++ {
		g.heartbeat(1, uint64(now)+1, now)
		before := len(g.redispatch)
		g.book.Redispatch(now, always(1), noKeep)
		if len(g.redispatch) > before {
			at = append(at, now)
		}
	}
	want := []sim.Time{10, 30, 70, 150, 230}
	if !reflect.DeepEqual(at, want) {
		t.Fatalf("re-sent at %v, want %v", at, want)
	}
	for i, c := range g.redispatch {
		if c.attempt != i+2 {
			t.Fatalf("re-send %d has attempt %d, want %d", i, c.attempt, i+2)
		}
	}
	if len(g.sent) != 1+len(want) {
		t.Fatalf("sent %d packets, want %d", len(g.sent), 1+len(want))
	}
}

// TestBookStaleRobotRedispatchOrder: when a robot falls silent for three
// heartbeat periods, its requests move, in ascending failed-ID order and whatever
// order they were issued in, even if acknowledged.
func TestBookStaleRobotRedispatchOrder(t *testing.T) {
	g := newBookRig(false)
	g.heartbeat(1, 1, 0)
	g.heartbeat(2, 1, 0)
	for _, f := range []radio.NodeID{30, 10, 20} {
		g.issue(f, 1, 0)
		g.book.Ack(1, f)
	}
	if !reflect.DeepEqual(g.issued, []radio.NodeID{30, 10, 20}) {
		t.Fatalf("issued = %v, want [30 10 20]", g.issued)
	}
	g.heartbeat(2, 2, 60)
	g.book.Redispatch(60, always(2), noKeep) // robot 1 still within DeadAfter
	if len(g.redispatch) != 0 {
		t.Fatalf("acked requests of a live robot moved: %v", g.redispatch)
	}
	g.heartbeat(2, 3, 91)
	g.book.Redispatch(91, always(2), noKeep)
	want := []redispatchCall{{10, 2, 2}, {20, 2, 2}, {30, 2, 2}}
	if !reflect.DeepEqual(g.redispatch, want) {
		t.Fatalf("redispatches = %v, want %v", g.redispatch, want)
	}
	for i, p := range g.sent[3:] {
		req := p.Payload.(wire.RepairRequest)
		if p.Dst != 2 || req.Failed != want[i].failed || req.Manager != bookSelf || !p.DstLoc.Eq(geom.Pt(2, 0)) {
			t.Fatalf("re-send %d = %+v to %d at %v", i, req, p.Dst, p.DstLoc)
		}
	}
}

func TestBookHoldAndKeep(t *testing.T) {
	g := newBookRig(false)
	rep := wire.FailureReport{Failed: 7, Loc: geom.Pt(7, 10)}
	g.book.MarkSeen(7)
	g.book.Hold(g.book.Request(rep, 0), 0)
	none := func(geom.Point, sim.Time) (radio.NodeID, bool) { return 0, false }
	g.book.Redispatch(5, none, noKeep)
	if len(g.redispatch) != 0 || len(g.sent) != 0 || !reflect.DeepEqual(g.outstanding(), []radio.NodeID{7}) {
		t.Fatalf("held request moved with no robot to take it: %v, ledger %v", g.redispatch, g.outstanding())
	}
	var kept []radio.NodeID
	g.book.Redispatch(6, always(bookSelf), func(req wire.RepairRequest) { kept = append(kept, req.Failed) })
	if !reflect.DeepEqual(kept, []radio.NodeID{7}) || len(g.book.ledger) != 0 || len(g.sent) != 0 {
		t.Fatalf("kept %v, ledger %v, sent %d", kept, g.outstanding(), len(g.sent))
	}
	if g.book.MarkSeen(7) {
		t.Fatal("a request kept for the manager itself lost its dedup mark")
	}
}

func TestBookReplayGuard(t *testing.T) {
	seqs := []uint64{5, 3, 5, 6, 2}
	cases := []struct {
		strict       bool
		wantRejected uint64
		wantSeq      uint64
	}{
		{false, 0, 2},
		{true, 2, 6},
	}
	for _, tc := range cases {
		g := newBookRig(tc.strict)
		for i, s := range seqs {
			g.heartbeat(1, s, sim.Time(i))
		}
		g.book.Note(wire.RobotUpdate{Robot: bookSelf, Seq: 1}, 9) // its own update
		if got := g.book.ReplayRejected(); got != tc.wantRejected {
			t.Errorf("strict=%v: rejected %d, want %d", tc.strict, got, tc.wantRejected)
		}
		fleet := g.book.Fleet()
		if len(fleet) != 1 || fleet[0].ID != 1 || fleet[0].Seq != tc.wantSeq {
			t.Errorf("strict=%v: fleet = %+v, want robot 1 at seq %d", tc.strict, fleet, tc.wantSeq)
		}
	}
	var nilBook *Book
	if nilBook.ReplayRejected() != 0 {
		t.Fatal("nil book reports rejections")
	}
}

func TestBookBestSkipsStaleAndBreaksTiesLow(t *testing.T) {
	g := newBookRig(false)
	g.heartbeat(3, 1, 0)
	g.heartbeat(2, 1, 50)
	g.heartbeat(4, 1, 50)
	score := func(e FleetEntry) float64 {
		if e.ID == 3 {
			return 0 // best, but silent since t=0
		}
		return 1
	}
	if id, s, ok := g.book.Best(100, score); !ok || id != 2 || s != 1 {
		t.Fatalf("Best = %d %v %v, want robot 2", id, s, ok)
	}
	if id, _, _ := g.book.Best(50, score); id != 3 {
		t.Fatalf("Best before the deadline = %d, want 3", id)
	}
	if _, _, ok := g.book.Best(500, score); ok {
		t.Fatal("Best found a live robot after the whole fleet fell silent")
	}
}
