package algorithm

// The paper's three coordination algorithms (Mei et al. §3.1–3.3),
// expressed as registered strategies. The wiring here reproduces the
// pre-registry scenario construction exactly — same policies, same
// update modes, same robot-placement draws in the same order — which the
// golden bit-identity regression locks down.

import (
	"roborepair/internal/core"
	"roborepair/internal/geom"
	"roborepair/internal/node"
	"roborepair/internal/radio"
	"roborepair/internal/robot"
	"roborepair/internal/sim"
)

func init() {
	Register(string(core.Centralized), newCentralized)
	Register(string(core.Fixed), newFixed)
	Register(string(core.Dynamic), newDynamic)
}

// uniformStart draws a uniform robot position from the deployment
// stream — two draws (x then y), matching the paper's random placement.
func uniformStart(env *Env) geom.Point {
	side := env.side()
	return geom.Pt(env.Deploy.Uniform(0, side), env.Deploy.Uniform(0, side))
}

// centralized is §3.1: a static manager at the field center receives
// every report and forwards each to the closest robot.
type centralized struct {
	env *Env
	mgr *core.Manager
}

func newCentralized(env *Env) (Strategy, error) {
	mgr := core.NewManager(env.ManagerID, env.Bounds.Center(), env.RobotRange, env.Medium, env.ManagerHooks)
	mgr.SetReliability(env.ManagerRel)
	return &centralized{env: env, mgr: mgr}, nil
}

func (s *centralized) Policy() node.Policy {
	return core.CentralizedPolicy{ManagerID: s.env.ManagerID}
}

func (s *centralized) UpdateMode() robot.UpdateMode {
	return core.CentralizedUpdate{ManagerID: s.env.ManagerID, ManagerLoc: s.env.Bounds.Center()}
}

func (s *centralized) Manager() *core.Manager      { return s.mgr }
func (s *centralized) CentralDispatch() bool       { return true }
func (s *centralized) RobotStart(i int) geom.Point { return uniformStart(s.env) }
func (s *centralized) Start(sim.Duration)          {}

// fixed is §3.2: the field is partitioned into equal subareas, one
// robot per subarea, each both manager and maintainer for its cell.
type fixed struct {
	env *Env
}

func newFixed(env *Env) (Strategy, error) {
	return &fixed{env: env}, nil
}

func (s *fixed) Policy() node.Policy {
	home := make(map[radio.NodeID]int, len(s.env.RobotIDs))
	for i, id := range s.env.RobotIDs {
		home[id] = i
	}
	return core.FixedPolicy{Partition: s.env.Partition, Home: home}
}

func (s *fixed) UpdateMode() robot.UpdateMode { return core.FloodUpdate{} }
func (s *fixed) Manager() *core.Manager       { return nil }
func (s *fixed) CentralDispatch() bool        { return false }

// RobotStart places robot i at its subarea center ("the robots first
// move to the centers of their corresponding subareas") — no draw.
func (s *fixed) RobotStart(i int) geom.Point { return s.env.Partition.Centers[i] }
func (s *fixed) Start(sim.Duration)          {}

// dynamic is §3.3: implicit Voronoi cells maintained by message
// passing; sensors adopt the closest robot they have heard of.
type dynamic struct {
	env *Env
}

func newDynamic(env *Env) (Strategy, error) {
	return &dynamic{env: env}, nil
}

func (s *dynamic) Policy() node.Policy          { return core.DynamicPolicy{} }
func (s *dynamic) UpdateMode() robot.UpdateMode { return core.FloodUpdate{} }
func (s *dynamic) Manager() *core.Manager       { return nil }
func (s *dynamic) CentralDispatch() bool        { return false }
func (s *dynamic) RobotStart(i int) geom.Point  { return uniformStart(s.env) }
func (s *dynamic) Start(sim.Duration)           {}
