package main

import (
	"fmt"
	"math"

	"roborepair/internal/chaos"
	"roborepair/internal/core"
	"roborepair/internal/scenario"
)

// DefaultSeed is the benchmark seed whose first simulation seed the pinned
// fingerprints were taken at.
const DefaultSeed = 1

// simSeeds is how many simulation seeds one benchmark seed averages over.
const simSeeds = 4

// workloadNames lists the benchmark's workloads in report order.
var workloadNames = []string{"paper16", "megafield20k", "fullstack16"}

// segments is the number of equal Sched.Run calls a rep's horizon is split
// into.
const segments = 10

// Workload is one named benchmark input: the simulator configuration the
// seed selects, the simulation seeds it is run at, and where in the run
// the checkpoint is taken.
type Workload struct {
	Name string
	Seed int64 // the benchmark seed
	// Cfg is the configuration; each rep runs it with Config.Seed set to
	// one of Seeds, taken in turn.
	Cfg scenario.Config
	// Seeds are the simulation seeds of one benchmark seed. Runs of one
	// simulation seed differ from another's (in failures, hence in
	// floods and allocations), so several are averaged: a benchmark run
	// measures the workload rather than the luck of its seed.
	Seeds []int64
	// SnapshotAfter is the segment after which the mid-run checkpoint is
	// taken (and later restored), 1 ≤ SnapshotAfter < segments.
	SnapshotAfter int
}

// config returns the configuration of the i-th rep.
func (w Workload) config(i int) scenario.Config {
	cfg := w.Cfg
	cfg.Seed = w.Seeds[i%len(w.Seeds)]
	return cfg
}

// fullstackFaults is fullstack16's fault plan over its 1000 s horizon: a
// loss burst, a mixed-mode corruption window, a battery drain, a robot
// breakdown and a manager crash.
const fullstackFaults = "burst@150-300=0.2;corrupt@350-700=0.02,mix;drain@200-800=0.2;robot@400=3;mgr@600"

// NewWorkload builds the named workload for seed. It is a pure function of
// its arguments.
func NewWorkload(name string, seed int64) (Workload, error) {
	cfg := scenario.DefaultConfig()
	cfg.Robots = 16
	w := Workload{Name: name, Seed: seed, SnapshotAfter: 5}
	switch name {
	case "paper16":
		// The paper's largest configuration (§4.1, 16 robots, 800
		// sensors) on an ideal medium with every opt-in layer off.
		cfg.SimTime = 2000
	case "megafield20k":
		// 20,000 sensors at the paper's density, as examples/megafield
		// scales the field; short lifetimes so that failure reports and
		// dispatches flow within the short horizon. BENCHMARK.json leaves
		// it out: its times swing with how much of a shared L3 cache the
		// machine's other tenants leave it (see NOTES.md).
		cfg.SensorsPerRobot = 1250
		cfg.AreaPerRobotSide = 200 * math.Sqrt(float64(cfg.SensorsPerRobot)/50)
		cfg.SimTime = 100
		cfg.MeanLifetime = 8 * cfg.SimTime
		// An early checkpoint keeps the restore's replay to the
		// init-discovery burst and a little steady state.
		w.SnapshotAfter = 2
	case "fullstack16":
		// Every opt-in layer on, under a fault plan that exercises the
		// hostile channel, the reliability protocol and the battery.
		cfg.Algorithm = core.Centralized
		cfg.SimTime = 1000
		cfg.MeanLifetime = 4000
		cfg.MACContention = true
		cfg.Reliability.Enabled = true
		cfg.Battery = &scenario.BatteryConfig{CapacityJ: 50000, RechargeW: 250}
		cfg.Telemetry.Enabled = true
		cfg.Recorder.Enabled = true
		cfg.Invariants.Enabled = true
		plan, err := chaos.Parse(fullstackFaults)
		if err != nil {
			return Workload{}, fmt.Errorf("workload %s: %w", name, err)
		}
		cfg.Faults = plan
	default:
		return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	// Benchmark seed s runs simulation seeds (s-1)·k+1 … s·k, so seed 1
	// starts at DefaultSeed and no two benchmark seeds share one.
	for i := int64(1); i <= simSeeds; i++ {
		w.Seeds = append(w.Seeds, (seed-1)*simSeeds+i)
	}
	w.Cfg = cfg
	if err := w.config(0).Validate(); err != nil {
		return Workload{}, fmt.Errorf("workload %s: %w", name, err)
	}
	return w, nil
}
