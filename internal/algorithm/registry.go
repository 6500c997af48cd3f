// Package algorithm is the coordination-strategy registry: every repair
// algorithm — the paper's three (§3.1–3.3) and extensions from the
// related literature — registers a named factory here, and the scenario
// layer builds whichever one Config.Algorithm names. Registering is all
// an algorithm has to do to appear in every CLI enumeration (sweeps,
// figures, invariant grids) and to be exercised by the cross-algorithm
// conformance suite (determinism, checkpoint round-trip, chaos
// cleanliness) for free.
package algorithm

import (
	"fmt"
	"sort"
	"strings"

	"roborepair/internal/core"
	"roborepair/internal/geom"
	"roborepair/internal/node"
	"roborepair/internal/radio"
	"roborepair/internal/rng"
	"roborepair/internal/robot"
	"roborepair/internal/sim"
)

// Env is everything the scenario layer hands a strategy factory: the
// wired medium and scheduler, the field geometry, the reserved IDs, and
// the observation hooks the world wants installed on a central manager.
// Deploy is nil at factory time — the scenario sets it before the first
// RobotStart call, preserving the seed-stream creation order that
// bit-identical replay depends on.
type Env struct {
	Medium    *radio.Medium
	Sched     *sim.Scheduler
	Bounds    geom.Rect
	Partition *geom.Partition
	// RobotIDs are the reserved robot addresses in deployment order;
	// ManagerID is the reserved address of a central manager station
	// (used only by strategies that build one).
	RobotIDs  []radio.NodeID
	ManagerID radio.NodeID
	// RobotRange is the robot/manager transmission range (meters).
	RobotRange float64
	// ManagerHooks are the world's observation callbacks for a central
	// manager; strategies may wrap them but must still invoke them.
	ManagerHooks core.ManagerHooks
	// ManagerRel carries the reliability extension's manager timing; its
	// zero value leaves the extension off.
	ManagerRel robot.Liveness
	// Deploy is the robot-placement random stream (shared with sensor
	// deployment; draws must happen in RobotStart call order).
	Deploy *rng.Source
	// Facility tunes the facility-location family; other strategies
	// ignore it.
	Facility FacilityParams
}

// side returns the square field's side length.
func (e *Env) side() float64 { return e.Bounds.Width() }

// Strategy is one coordination algorithm, wired and ready for the
// scenario layer to deploy. The scenario calls the accessors exactly
// once each during construction, RobotStart once per robot in ID order,
// and Start after every station is attached.
type Strategy interface {
	// Policy is the sensor-side relay/report policy.
	Policy() node.Policy
	// UpdateMode is how robots disseminate location updates.
	UpdateMode() robot.UpdateMode
	// Manager returns the central manager station, or nil for fully
	// distributed strategies. The scenario attaches and starts it.
	Manager() *core.Manager
	// CentralDispatch reports whether a central manager owns dispatch:
	// sensors report to it, robots heartbeat to it, and stranded-task
	// failover goes through its re-dispatch machinery rather than peer
	// requeueing.
	CentralDispatch() bool
	// RobotStart returns robot i's deployment position. Implementations
	// that place robots randomly must draw exactly from Env.Deploy, in
	// call order.
	RobotStart(i int) geom.Point
	// Start arms any strategy-owned periodic work (e.g. the facility
	// re-solver). Called once, after the manager and all robots have
	// started; the paper's three strategies do nothing here.
	Start(initDelay sim.Duration)
}

// Factory builds a strategy against a wired environment.
type Factory func(env *Env) (Strategy, error)

var registry = map[string]Factory{}

// Register adds a named strategy factory. It panics on an empty name or
// a duplicate registration — both are programmer errors that must fail
// loudly at init time, not surface as a silently shadowed algorithm.
func Register(name string, f Factory) {
	if name == "" {
		panic("algorithm: Register with empty name")
	}
	if f == nil {
		panic(fmt.Sprintf("algorithm: Register(%q) with nil factory", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("algorithm: duplicate registration of %q", name))
	}
	registry[name] = f
}

// Lookup returns the factory registered under name. Unknown names fail
// with a message listing every registered algorithm, so a typo in a
// config or CLI flag is self-explaining.
func Lookup(name string) (Factory, error) {
	if f, ok := registry[name]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("algorithm: unknown algorithm %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// Names enumerates the registered algorithms in sorted (deterministic)
// order — the order CLIs present and sweeps iterate.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns every registered algorithm as core.Algorithm values in
// Names order, for grids and sweeps.
func All() []core.Algorithm {
	names := Names()
	out := make([]core.Algorithm, len(names))
	for i, n := range names {
		out[i] = core.Algorithm(n)
	}
	return out
}

// Parse validates s against the registry and returns it as an
// Algorithm. It accepts exactly the registered names (the legacy
// Centralized/Fixed/Dynamic constants are registered names, so they
// keep resolving).
func Parse(s string) (core.Algorithm, error) {
	if _, err := Lookup(s); err != nil {
		return "", err
	}
	return core.Algorithm(s), nil
}
