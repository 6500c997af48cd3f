package algorithm

// Facility-location mule coordination (Hermelin et al., arXiv:1702.04142),
// the fourth registered family. A central manager receives reports and
// dispatches as in §3.1, but additionally maintains a bounded ledger of
// recent failure sites and, on a fixed cadence, re-solves a k-median (or
// k-center) facility-location instance over it — k being the number of
// currently idle robots. Idle robots are then commanded to park at the
// computed facilities, so by the time the next failure in a hot region is
// reported, a robot is already nearby; dispatch itself picks the robot
// nearest the facility that covers the failure. Busy robots are never
// touched, and a repair task always preempts a relocation in flight.

import (
	"fmt"
	"math"

	"roborepair/internal/core"
	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/node"
	"roborepair/internal/radio"
	"roborepair/internal/robot"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// Facility is the registered name of the facility-location family.
const Facility core.Algorithm = "facility"

func init() {
	Register(string(Facility), newFacility)
}

// Facility objective names.
const (
	ObjectiveKMedian = "kmedian"
	ObjectiveKCenter = "kcenter"
)

// Default cadence and ledger bound. 500 s is a few robot traversals of a
// paper-sized subarea — fast enough to track drift in the failure
// distribution, slow enough that parked robots are not perpetually in
// transit. 64 sites keeps the solver O(k·n) cheap while remembering far
// more history than the robot count.
const (
	defaultFacilityPeriod = 500.0
	defaultFacilityLedger = 64
)

// relocateSkipFrac sizes the churn-suppression threshold: a relocation
// command is skipped while the robot stands within this fraction of the
// per-robot field scale (√(area/robots)) of its assigned facility. The
// solved medians drift with every ledger update — the ledger is a
// sliding sample — so a tight threshold would keep parked robots
// perpetually commuting after sampling noise; a quarter of the robot's
// own service radius damps that churn while still correcting genuinely
// stale placements. At the paper's constant 200 m × 200 m per robot this
// is 50 m.
const relocateSkipFrac = 0.25

// FacilityParams tunes the family. Zero values select the defaults.
type FacilityParams struct {
	// Objective is "kmedian" (default) or "kcenter".
	Objective string
	// Period is the re-solve cadence in seconds (default 500).
	Period float64
	// Ledger caps the failure-site ledger, FIFO-evicted (default 64).
	Ledger int
}

// Validate rejects unknown objectives and negative knobs.
func (p FacilityParams) Validate() error {
	switch p.Objective {
	case "", ObjectiveKMedian, ObjectiveKCenter:
	default:
		return fmt.Errorf("algorithm: unknown facility objective %q (want %s or %s)",
			p.Objective, ObjectiveKMedian, ObjectiveKCenter)
	}
	if p.Period < 0 {
		return fmt.Errorf("algorithm: facility period %v negative", p.Period)
	}
	if p.Ledger < 0 {
		return fmt.Errorf("algorithm: facility ledger %d negative", p.Ledger)
	}
	return nil
}

type facility struct {
	env *Env
	mgr *core.Manager

	objective string
	period    sim.Duration
	ledgerCap int
	skip      float64 // churn-suppression distance, see relocateSkipFrac

	ledger     []geom.Point // recent failure sites, FIFO-bounded
	facilities []geom.Point // last solved placement
	relocSeq   uint64       // monotonic across all relocation commands
}

func newFacility(env *Env) (Strategy, error) {
	if err := env.Facility.Validate(); err != nil {
		return nil, err
	}
	s := &facility{
		env:       env,
		objective: env.Facility.Objective,
		period:    sim.Duration(env.Facility.Period),
		ledgerCap: env.Facility.Ledger,
	}
	if s.objective == "" {
		s.objective = ObjectiveKMedian
	}
	if s.period <= 0 {
		s.period = defaultFacilityPeriod
	}
	if s.ledgerCap <= 0 {
		s.ledgerCap = defaultFacilityLedger
	}
	if n := len(env.RobotIDs); n > 0 {
		s.skip = relocateSkipFrac * math.Sqrt(env.Bounds.Area()/float64(n))
	}
	// Wrap the world's report hook to feed the ledger; the world's own
	// accounting still runs.
	hooks := env.ManagerHooks
	observe := hooks.OnReportReceived
	hooks.OnReportReceived = func(rep wire.FailureReport, hops int) {
		s.note(rep.Loc)
		if observe != nil {
			observe(rep, hops)
		}
	}
	s.mgr = core.NewManager(env.ManagerID, env.Bounds.Center(), env.RobotRange, env.Medium, hooks)
	s.mgr.SetReliability(env.ManagerRel)
	s.mgr.SetSelector(s.selectRobot)
	return s, nil
}

func (s *facility) Policy() node.Policy {
	return core.CentralizedPolicy{ManagerID: s.env.ManagerID}
}

func (s *facility) UpdateMode() robot.UpdateMode {
	return core.CentralizedUpdate{ManagerID: s.env.ManagerID, ManagerLoc: s.env.Bounds.Center()}
}

func (s *facility) Manager() *core.Manager      { return s.mgr }
func (s *facility) CentralDispatch() bool       { return true }
func (s *facility) RobotStart(i int) geom.Point { return uniformStart(s.env) }

// Start arms the periodic re-solver after the fleet has announced
// itself; the first solve happens one period past initDelay.
func (s *facility) Start(initDelay sim.Duration) {
	if _, err := s.env.Sched.NewTicker(initDelay+s.period, s.period, s.resolve); err != nil {
		panic(err) // unreachable: the period is forced positive above
	}
}

// note appends a failure site to the ledger, FIFO-evicting past the cap.
func (s *facility) note(loc geom.Point) {
	s.ledger = append(s.ledger, loc)
	if len(s.ledger) > s.ledgerCap {
		s.ledger = s.ledger[len(s.ledger)-s.ledgerCap:]
	}
}

// selectRobot is the pluggable dispatch rule: dispatch the idle robot
// nearest the failure (ties to the lowest ID). The facility placement
// does its work *before* dispatch — idle robots stand parked at the
// solved facilities, so "nearest idle robot" is "the robot covering
// this failure's hot region". Busy robots are never chosen: the paper's
// closest-robot rule piles work onto a loaded robot that happens to sit
// nearby, while a parked one a little farther out is free now. With no
// idle robot the selector declines and the manager's built-in policy
// applies.
func (s *facility) selectRobot(loc geom.Point, robots []core.RobotView) (radio.NodeID, bool) {
	found := false
	var best core.RobotView
	bestD := 0.0
	for _, v := range robots {
		if v.Load != 0 {
			continue
		}
		d := v.Loc.Dist2(loc)
		if !found || d < bestD || (d == bestD && v.ID < best.ID) {
			best, bestD, found = v, d, true
		}
	}
	return best.ID, found
}

// resolve re-solves the facility-location instance over the ledger and
// commands idle robots to their facilities. It is a no-op while the
// manager is crashed or deposed (an elected mobile manager runs the
// paper's dispatch without facility placement), or while there is
// nothing to learn from (no failures yet) or no robot free to move.
func (s *facility) resolve() {
	if !s.mgr.Active() || len(s.ledger) == 0 {
		return
	}
	views := s.mgr.RobotViews()
	idle := views[:0:0]
	for _, v := range views {
		if v.Load == 0 {
			idle = append(idle, v)
		}
	}
	if len(idle) == 0 {
		return
	}
	// Warm-start the k-median from the previous placement whenever the
	// facility count is unchanged: the ledger is a sliding window, so a
	// cold solve jumps to a fresh configuration every period and the idle
	// fleet commutes after it. Refining the previous solution instead
	// converges to a stable fixed point of the window, and robots that
	// are already parked stay parked.
	var fac []geom.Point
	switch {
	case s.objective == ObjectiveKCenter:
		fac = geom.KCenter(s.ledger, len(idle))
	case len(s.facilities) == len(idle):
		fac = geom.KMedianFrom(s.ledger, s.facilities)
	default:
		fac = geom.KMedian(s.ledger, len(idle))
	}
	s.facilities = fac
	// Greedy assignment in facility index order: each facility takes the
	// nearest unassigned idle robot (ties to the lowest ID).
	assigned := make([]bool, len(idle))
	for _, f := range fac {
		best := -1
		var bestD float64
		for i, v := range idle {
			if assigned[i] {
				continue
			}
			d := v.Loc.Dist2(f)
			if best < 0 || d < bestD || (d == bestD && v.ID < idle[best].ID) {
				best, bestD = i, d
			}
		}
		if best < 0 {
			break // more facilities than idle robots (clamped k, still possible)
		}
		assigned[best] = true
		v := idle[best]
		if v.Loc.Dist(f) <= s.skip {
			continue // already parked there
		}
		s.relocSeq++
		s.mgr.Router().Originate(netstack.Packet{
			Dst:      v.ID,
			DstLoc:   v.Loc,
			Category: metrics.CatRelocate,
			Payload:  wire.Relocate{Robot: v.ID, Dest: f, Seq: s.relocSeq},
		})
	}
}
