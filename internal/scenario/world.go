package scenario

import (
	"fmt"
	"math"

	"roborepair/internal/algorithm"
	"roborepair/internal/chaos"
	"roborepair/internal/core"
	"roborepair/internal/coverage"
	"roborepair/internal/failure"
	"roborepair/internal/ftdc"
	"roborepair/internal/geom"
	"roborepair/internal/invariant"
	"roborepair/internal/metrics"
	"roborepair/internal/node"
	"roborepair/internal/radio"
	"roborepair/internal/rng"
	"roborepair/internal/robot"
	"roborepair/internal/sim"
	"roborepair/internal/telemetry"
	"roborepair/internal/trace"
	"roborepair/internal/wire"
)

// World is a fully wired simulation ready to run. Build one with New, run
// it with Run, then read Results.
type World struct {
	Cfg       Config
	Sched     *sim.Scheduler
	Medium    *radio.Medium
	Registry  *metrics.Registry
	Sensors   map[radio.NodeID]*node.Sensor
	Robots    []*robot.Robot
	Manager   *core.Manager // nil except for the centralized algorithm
	Partition *geom.Partition
	Injector  *failure.Injector
	Trace     *trace.Log           // non-nil only when Config.TraceCapacity != 0
	Telemetry *telemetry.Collector // non-nil only when Config.Telemetry.Enabled
	Recorder  *ftdc.Recorder       // non-nil only when Config.Recorder.Enabled

	nextID   radio.NodeID
	policy   node.Policy
	strategy algorithm.Strategy

	// counters, incremented by hooks (see below); trace records lifecycle
	// events when enabled.

	// counters, incremented by hooks
	failuresInjected  int
	reportsSent       int
	reportsDelivered  int
	requestsIssued    int
	requestsDelivered int
	repairs           int

	// Reliability/fault state (robustness extension).
	relNode        node.Reliability // sensor-side knobs; zero when disabled
	strandedTasks  int
	requeuedTasks  int
	reportRetx     int
	reportsAban    int
	redispatches   int
	takeovers      int
	managerCrashAt sim.Time                      // -1 until the planned crash fires
	requeuedAt     map[radio.NodeID]sim.Time     // failed ID → when its task was re-queued
	siteIDs        map[geom.Point][]radio.NodeID // every sensor ever placed at a site
	dupRepair      bool                          // spawnReplacement→OnTaskDone handshake for the current repair
	dupRepairs     int

	// Telemetry histogram feeds; nil when telemetry is disabled, so the
	// hooks pay one nil check.
	telRepairDelay *telemetry.LogHistogram
	telReportHops  *telemetry.LogHistogram
	telReportRetx  *telemetry.LogHistogram
	telTrip        *telemetry.LogHistogram

	// inv is the conservation-law checker; nil when Config.Invariants is
	// disabled, so the hooks pay one nil check.
	inv *invariant.Checker

	// streams holds every named RNG stream split off the config seed, in
	// creation order, so a checkpoint can capture each stream's exact
	// position. Creation order is a deterministic function of the config.
	streams []*rng.Source

	// corrupter is retained for checkpointing (its replay-capture ring is
	// dynamic state); nil unless the fault plan has corruption windows.
	corrupter *chaos.FrameCorrupter

	// hostile is set when the fault plan has corruption windows: the frame
	// codec and corrupter are installed on the medium and every receiver
	// runs its strict-sequence replay guard.
	hostile bool
}

// New builds a world from the configuration.
func New(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	kernel, err := sim.ParseKernel(cfg.Kernel)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sched := sim.NewSchedulerKernel(kernel)
	reg := metrics.NewRegistry()
	w := &World{
		Cfg:            cfg,
		Sched:          sched,
		Registry:       reg,
		Sensors:        make(map[radio.NodeID]*node.Sensor, cfg.NumSensors()),
		nextID:         1,
		managerCrashAt: -1,
	}
	// Named streams register on the world at creation so a checkpoint can
	// capture their positions; registration itself draws nothing.
	split := func(name string) *rng.Source {
		s := rng.Split(cfg.Seed, name)
		w.streams = append(w.streams, s)
		return s
	}
	// The fault plan's loss bursts and blackouts wrap the base loss model;
	// the burst draws come from their own stream so an (in)active burst
	// never perturbs the base loss sequence.
	loss := cfg.lossModel(split("loss"))
	var outage radio.OutageModel
	var channel radio.Channel
	var corrupter radio.Corrupter
	if cfg.Faults != nil {
		if len(cfg.Faults.LossBursts) > 0 {
			loss = chaos.NewLossInjector(cfg.Faults.LossBursts, loss, sched.Now, split("chaos-loss"))
		}
		if o := chaos.NewRegionOutage(cfg.Faults.Blackouts, sched.Now); o != nil {
			outage = o
		}
		if len(cfg.Faults.Corruptions) > 0 {
			// Hostile channel: serialize every frame so the corrupter has
			// bytes to mutate, from its own stream so a corruption window
			// never perturbs the loss or MAC sequences.
			w.hostile = true
			channel = wire.FrameCodec{}
			w.corrupter = chaos.NewFrameCorrupter(cfg.Faults.Corruptions, sched.Now, split("chaos-corrupt"))
			corrupter = w.corrupter
		}
	}
	hostile := w.hostile
	medium, err := radio.NewMedium(sched, reg, radio.Config{
		CellSize:   cfg.SensorRange,
		Loss:       loss,
		Outage:     outage,
		Contention: cfg.contentionModel(split("mac")),
		Channel:    channel,
		Corrupter:  corrupter,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	w.Medium = medium
	if cfg.Invariants.Enabled {
		w.startInvariants()
	}
	w.Injector = failure.NewInjector(sched, cfg.lifetimeModel(split("lifetimes")))
	if cfg.TraceCapacity != 0 {
		w.Trace = trace.New(cfg.TraceCapacity)
	}
	// Always installed: the body nil-checks its consumers, and a restored
	// world may gain a tail trace after the fact (RestoreOptions).
	w.Injector.OnKill = func(n failure.Failable) {
		s, ok := n.(*node.Sensor)
		if !ok {
			return
		}
		if w.inv != nil {
			w.inv.FailureInjected(s.ID(), s.Pos())
		}
		if w.Trace != nil {
			w.Trace.Record(trace.Event{
				At: sched.Now(), Kind: trace.KindFailure,
				Node: s.ID(), Loc: s.Pos(),
			})
		}
	}

	side := cfg.FieldSide()
	bounds := geom.Square(geom.Pt(0, 0), side)

	part, err := geom.NewPartition(cfg.Partition, bounds, cfg.Robots)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	w.Partition = part

	// Reserve robot and manager IDs before sensors so replacement sensors
	// can keep growing the ID space monotonically.
	robotIDs := make([]radio.NodeID, cfg.Robots)
	for i := range robotIDs {
		robotIDs[i] = radio.NodeID(i + 1)
	}
	managerID := radio.NodeID(cfg.Robots + 1)
	w.nextID = radio.NodeID(cfg.Robots + 2)

	rel := cfg.Reliability.withDefaults()

	// Algorithm wiring via the strategy registry: the factory builds the
	// sensor policy, the robot update mode, and (for centrally dispatched
	// families) the manager station, against hooks that feed the world's
	// counters and trace.
	factory, err := algorithm.Lookup(string(cfg.Algorithm))
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	env := &algorithm.Env{
		Medium:     medium,
		Sched:      sched,
		Bounds:     bounds,
		Partition:  part,
		RobotIDs:   robotIDs,
		ManagerID:  managerID,
		RobotRange: cfg.RobotRange,
		ManagerHooks: core.ManagerHooks{
			OnReportReceived: func(rep wire.FailureReport, hops int) {
				w.reportsDelivered++
				reg.Observe(metrics.SeriesReportHops, float64(hops))
				if w.telReportHops != nil {
					w.telReportHops.Add(float64(hops))
				}
				w.trace(trace.Event{
					At: sched.Now(), Kind: trace.KindReportDelivered,
					Node: rep.Failed, Actor: managerID, Loc: rep.Loc,
				})
			},
			OnRequestIssued: w.requestIssued,
			OnRedispatch:    w.requestRedispatched,
		},
		RelEnabled: rel.Enabled,
		Facility: algorithm.FacilityParams{
			Objective: cfg.FacilityObjective,
			Period:    cfg.FacilityPeriodS,
			Ledger:    cfg.FacilityLedger,
		},
	}
	if rel.Enabled {
		env.ManagerRel = core.ManagerReliability{
			HeartbeatPeriod:    sim.Duration(rel.HeartbeatS),
			MissedHeartbeats:   rel.MissedHeartbeats,
			DispatchAckTimeout: sim.Duration(rel.DispatchAckTimeoutS),
		}
	}
	strat, err := factory(env)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	w.strategy = strat
	w.Manager = strat.Manager()
	w.policy = strat.Policy()
	mode := strat.UpdateMode()

	if rel.Enabled {
		w.relNode = node.Reliability{
			RetryBase:     sim.Duration(rel.ReportRetryS),
			RetryMax:      sim.Duration(rel.ReportRetryMaxS),
			RetryLimit:    rel.ReportRetryLimit,
			RobotExpiry:   sim.Duration(rel.HeartbeatS) * sim.Duration(rel.MissedHeartbeats),
			OrphanAdopt:   true,
			NeighborWatch: true,
			WatchGrace:    sim.Duration(rel.WatchGraceS),
		}
		if strat.CentralDispatch() {
			w.relNode.Manager = managerID
		}
		w.requeuedAt = make(map[radio.NodeID]sim.Time)
		w.siteIDs = make(map[geom.Point][]radio.NodeID)
	}

	// Deploy the initial sensor population. The deploy stream is shared
	// with robot placement (RobotStart draws from it after the sensors),
	// preserving the pre-registry draw order.
	deploy := split("deploy")
	env.Deploy = deploy
	jitter := split("jitter")
	for _, pos := range placeSensors(cfg.Deployment, cfg.NumSensors(), bounds, deploy) {
		w.spawnSensor(pos, jitter, false, 0, geom.Point{})
	}

	// Deploy robots: at subarea centers for the fixed algorithm ("the
	// robots first move to the centers of their corresponding subareas"),
	// uniformly at random otherwise.
	robotHooks := robot.Hooks{
		SpawnReplacement: w.spawnReplacement,
		OnTaskDone: func(r *robot.Robot, t robot.Task, dist float64, delay sim.Duration) {
			if w.telTrip != nil {
				// The trip was driven whether or not a node got replaced.
				w.telTrip.Add(dist)
			}
			if w.dupRepair {
				// The site was already repaired by another robot (duplicate
				// reports can cross dispatcher boundaries under faults):
				// the trip happened but no node was replaced.
				w.dupRepair = false
				return
			}
			w.repairs++
			if w.inv != nil {
				w.inv.RepairCompleted(t.Failed, t.Loc)
			}
			// 30 s buckets cover 0..2 h of repair delay; the tail beyond
			// that reports exactly via overflow.
			reg.Histogram(HistRepairDelay, 30, 240).Add(float64(delay))
			if w.telRepairDelay != nil {
				w.telRepairDelay.Add(float64(delay))
			}
			if at, ok := w.requeuedAt[t.Failed]; ok {
				delete(w.requeuedAt, t.Failed)
				reg.Observe(metrics.SeriesFaultRecovery, float64(sched.Now().Sub(at)))
			}
			w.trace(trace.Event{
				At: sched.Now(), Kind: trace.KindReplacement,
				Node: t.Failed, Actor: r.ID(), Loc: t.Loc,
			})
		},
		OnReportReceived: func(rep wire.FailureReport, hops int) {
			w.reportsDelivered++
			reg.Observe(metrics.SeriesReportHops, float64(hops))
			if w.telReportHops != nil {
				w.telReportHops.Add(float64(hops))
			}
			w.trace(trace.Event{
				At: sched.Now(), Kind: trace.KindReportDelivered,
				Node: rep.Failed, Loc: rep.Loc,
			})
		},
		OnRequestReceived: func(req wire.RepairRequest, hops int) {
			w.requestsDelivered++
			reg.Observe(metrics.SeriesRequestHops, float64(hops))
		},
		OnPublish: func(r *robot.Robot, up wire.RobotUpdate) {
			w.trace(trace.Event{
				At: sched.Now(), Kind: trace.KindLocationUpdate,
				Node: r.ID(), Actor: r.ID(), Loc: up.Loc,
			})
		},
		OnFail: func(r *robot.Robot, stranded []robot.Task) {
			if w.inv != nil {
				w.inv.RobotDied(r.ID())
			}
			w.trace(trace.Event{
				At: sched.Now(), Kind: trace.KindRobotFailure,
				Node: r.ID(), Actor: r.ID(), Loc: r.Pos(),
			})
			w.strandedTasks += len(stranded)
			for _, t := range stranded {
				w.trace(trace.Event{
					At: sched.Now(), Kind: trace.KindTaskStranded,
					Node: t.Failed, Actor: r.ID(), Loc: t.Loc,
				})
			}
			// Under the distributed algorithms the dead robot's neighbors
			// absorb its pending work (a central manager re-dispatches
			// through its own liveness tracking instead).
			if rel.Enabled && !strat.CentralDispatch() {
				w.requeueStranded(stranded)
			}
		},
		OnTakeover: func(r *robot.Robot) {
			w.takeovers++
			w.relNode.Manager = r.ID() // future replacement sensors track the elected manager
			w.trace(trace.Event{
				At: sched.Now(), Kind: trace.KindTakeover,
				Node: r.ID(), Actor: r.ID(), Loc: r.Pos(),
			})
			if w.managerCrashAt >= 0 {
				reg.Observe(metrics.SeriesFaultRecovery, float64(sched.Now().Sub(w.managerCrashAt)))
			}
		},
		OnRequestIssued: w.requestIssued,
		OnRedispatch:    w.requestRedispatched,
	}
	if w.inv != nil {
		robotHooks.OnMove = func(r *robot.Robot, from geom.Point, fromAt sim.Time, to geom.Point) {
			w.inv.RobotMoved(r.ID(), from, fromAt, to)
		}
	}
	if cfg.Battery != nil {
		robotHooks.OnBatteryDeath = func(r *robot.Robot) {
			// OnFail has already stranded (and, for distributed algorithms,
			// re-queued) the robot's tasks; this marker records the cause.
			w.trace(trace.Event{
				At: sched.Now(), Kind: trace.KindBatteryDeath,
				Node: r.ID(), Actor: r.ID(), Loc: r.Pos(),
			})
		}
		robotHooks.OnRecharge = func(r *robot.Robot) {
			w.trace(trace.Event{
				At: sched.Now(), Kind: trace.KindRecharge,
				Node: r.ID(), Actor: r.ID(), Loc: r.Pos(),
			})
		}
		robotHooks.OnHandoff = func(donor *robot.Robot, handed []robot.Task) {
			now := sched.Now()
			for _, t := range handed {
				best := w.nearestAlive(t.Loc, donor.ID())
				if best == nil {
					// No other live robot: bounce the task back to the donor,
					// which queues it for after its recharge.
					best = donor
				}
				w.trace(trace.Event{
					At: now, Kind: trace.KindTaskHandoff,
					Node: t.Failed, Actor: donor.ID(), Loc: t.Loc,
				})
				if w.requeuedAt != nil {
					w.requeuedAt[t.Failed] = now
				}
				best.Enqueue(robot.Task{Failed: t.Failed, Loc: t.Loc, EnqueuedAt: now})
			}
		}
	}
	rcfg := robot.Config{
		Speed:           cfg.RobotSpeed,
		Range:           cfg.RobotRange,
		UpdateThreshold: cfg.UpdateThreshold,
		ServiceTime:     sim.Duration(cfg.ServiceTime),
	}
	if cfg.NearestFirstQueue {
		rcfg.Queue = robot.NearestFirst
	}
	if cfg.CargoCapacity > 0 {
		rcfg.Cargo = cfg.CargoCapacity
		rcfg.Depot = bounds.Center()
	}
	rcfg.StrictSeq = hostile
	if cfg.Battery != nil {
		bc := cfg.Battery.withDefaults()
		rcfg.Battery = robot.BatteryParams{
			CapacityJ: bc.CapacityJ,
			RechargeW: bc.RechargeW,
			ReserveJ:  bc.ReserveJ,
			Model:     bc.model(),
			Depot:     bounds.Center(),
		}
	}
	if rel.Enabled {
		rcfg.Reliability = robot.Reliability{
			HeartbeatPeriod:    sim.Duration(rel.HeartbeatS),
			MissedHeartbeats:   rel.MissedHeartbeats,
			DispatchAckTimeout: sim.Duration(rel.DispatchAckTimeoutS),
		}
		if strat.CentralDispatch() {
			rcfg.Reliability.Manager = managerID
			rcfg.Reliability.ManagerLoc = bounds.Center()
		}
	}
	for i, id := range robotIDs {
		pos := strat.RobotStart(i)
		rc := rcfg
		rc.Reliability.TakeoverRank = i
		r := robot.New(id, pos, rc, mode, medium, robotHooks)
		w.Robots = append(w.Robots, r)
		r.Start(initDelay)
		if w.Manager != nil {
			// The manager also learns robot locations from their init
			// unicasts; priming the table mirrors the paper's
			// initialization step 2 and covers the (rare) case of a lost
			// registration packet.
			w.Manager.TrackRobot(id, pos)
		}
	}
	if w.Manager != nil {
		if cfg.ETADispatch {
			w.Manager.SetDispatchPolicy(core.DispatchShortestETA)
		}
		if hostile {
			w.Manager.SetStrictSeq(true)
		}
		w.Manager.Start(initDelay)
	}
	// Strategy-owned periodic work (e.g. the facility re-solver); a no-op
	// for the paper's three algorithms, so their event sequences are
	// untouched.
	strat.Start(initDelay)
	if cfg.SensingRange > 0 {
		w.startCoverageSampling(bounds)
	}
	if cfg.RobotFailures > 0 {
		n := cfg.RobotFailures
		if n > len(w.Robots) {
			n = len(w.Robots)
		}
		at := sim.Time(cfg.RobotFailureTime)
		sched.After(at.Sub(sched.Now()), func() {
			for i := 0; i < n; i++ {
				w.Robots[i].FailNow()
			}
		})
	}
	w.scheduleFaults()
	if cfg.Telemetry.Enabled {
		if err := w.startTelemetry(); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	if cfg.Recorder.Enabled {
		if err := w.startRecorder(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// scheduleFaults arms the fault plan's events on the scheduler. Loss
// bursts and blackouts act through the medium models installed in New;
// here they only get trace markers.
func (w *World) scheduleFaults() {
	plan := w.Cfg.Faults
	if plan.Empty() {
		return
	}
	sched := w.Sched
	for _, rf := range plan.RobotFailures {
		idx := rf.Robot
		sched.After(sim.Time(rf.At).Sub(sched.Now()), func() {
			w.Robots[idx].FailNow()
		})
	}
	if plan.ManagerCrashAt > 0 && w.Manager != nil {
		sched.After(sim.Time(plan.ManagerCrashAt).Sub(sched.Now()), func() {
			w.managerCrashAt = sched.Now()
			w.trace(trace.Event{
				At: sched.Now(), Kind: trace.KindManagerCrash,
				Node: w.Manager.ID(), Loc: w.Manager.Pos(),
			})
			w.Manager.FailNow()
		})
	}
	if w.Trace != nil {
		for _, b := range plan.LossBursts {
			sched.After(sim.Time(b.From).Sub(sched.Now()), func() {
				w.trace(trace.Event{At: sched.Now(), Kind: trace.KindFault})
			})
		}
		for _, b := range plan.Blackouts {
			sched.After(sim.Time(b.From).Sub(sched.Now()), func() {
				w.trace(trace.Event{At: sched.Now(), Kind: trace.KindFault, Loc: b.Center})
			})
		}
	}
	// Drain windows act on robot batteries, so they are inert — scheduling
	// nothing at all — unless the battery layer is on: a battery-off run
	// with a drain plan stays bit-identical to one without it.
	if w.Cfg.Battery != nil {
		for _, d := range plan.Drains {
			d := d
			watts := d.Fraction * w.Cfg.Battery.CapacityJ / (d.To - d.From)
			apply := func(delta float64) {
				if d.Robot >= 0 {
					w.Robots[d.Robot].AddExtraDrainW(delta)
					return
				}
				for _, r := range w.Robots {
					r.AddExtraDrainW(delta)
				}
			}
			sched.After(sim.Time(d.From).Sub(sched.Now()), func() {
				w.trace(trace.Event{At: sched.Now(), Kind: trace.KindFault})
				apply(watts)
			})
			sched.After(sim.Time(d.To).Sub(sched.Now()), func() { apply(-watts) })
		}
	}
}

// requeueStranded hands a dead robot's pending tasks to the surviving
// robot closest to each failure site (the distributed algorithms' peer
// failover; re-queued tasks feed the fault-recovery series on completion).
func (w *World) requeueStranded(stranded []robot.Task) {
	now := w.Sched.Now()
	for _, t := range stranded {
		best := w.nearestAlive(t.Loc, 0)
		if best == nil {
			continue // no surviving robot; the failure stays unrepaired
		}
		w.requeuedTasks++
		w.requeuedAt[t.Failed] = now
		w.trace(trace.Event{
			At: now, Kind: trace.KindTaskRequeued,
			Node: t.Failed, Actor: best.ID(), Loc: t.Loc,
		})
		best.Enqueue(robot.Task{Failed: t.Failed, Loc: t.Loc, EnqueuedAt: now})
	}
}

// nearestAlive returns the live robot closest to loc, skipping exclude
// (pass 0 — never a robot ID — to consider the whole fleet).
func (w *World) nearestAlive(loc geom.Point, exclude radio.NodeID) *robot.Robot {
	var best *robot.Robot
	bestD := math.Inf(1)
	for _, r := range w.Robots {
		if !r.Alive() || r.ID() == exclude {
			continue
		}
		if d := r.Pos().Dist2(loc); d < bestD {
			best, bestD = r, d
		}
	}
	return best
}

// startCoverageSampling periodically records the covered field fraction.
func (w *World) startCoverageSampling(bounds geom.Rect) {
	period := w.Cfg.CoverageSamplePeriod
	if period <= 0 {
		period = 1000
	}
	// ~2 probes per sensing radius in each axis.
	probes := int(bounds.Width()/w.Cfg.SensingRange*2) + 1
	est := coverage.NewEstimator(bounds, w.Cfg.SensingRange, probes, probes)
	sample := func() {
		alive := make([]geom.Point, 0, len(w.Sensors))
		for _, s := range w.Sensors {
			if s.Alive() {
				alive = append(alive, s.Pos())
			}
		}
		w.Registry.Observe(metrics.SeriesCoverage, est.Fraction(alive))
	}
	if _, err := w.Sched.NewTicker(sim.Duration(period), sim.Duration(period), sample); err != nil {
		// Unreachable: period is forced positive above.
		panic(err)
	}
}

// trace records an event when tracing is enabled.
func (w *World) trace(e trace.Event) {
	if w.Trace != nil {
		w.Trace.Record(e)
	}
}

// sensorConfig derives the node.Config from the scenario configuration.
func (w *World) sensorConfig() node.Config {
	return node.Config{
		Range:              w.Cfg.SensorRange,
		BeaconPeriod:       sim.Duration(w.Cfg.BeaconPeriod),
		MissedBeacons:      w.Cfg.MissedBeacons,
		SettleDelay:        settleDelay,
		FloodTTL:           core.FloodTTL,
		EfficientBroadcast: w.Cfg.EfficientBroadcast,
		Reliability:        w.relNode,
		StrictSeq:          w.hostile,
	}
}

// spawnSensor creates, registers, arms, and boots one sensor. For
// replacements, target/targetLoc seed the new node's report destination.
func (w *World) spawnSensor(pos geom.Point, jitter *rng.Source, replacement bool, target radio.NodeID, targetLoc geom.Point) *node.Sensor {
	id := w.nextID
	w.nextID++
	hooks := node.Hooks{
		OnReportSent: func(rep wire.FailureReport) {
			w.reportsSent++
			if w.inv != nil && rep.Seq > 0 {
				w.inv.ReportSent(rep.Reporter, rep.Seq)
			}
			w.trace(trace.Event{
				At: w.Sched.Now(), Kind: trace.KindReportSent,
				Node: rep.Failed, Actor: rep.Reporter, Loc: rep.Loc,
			})
		},
		OnReportRetx: func(rep wire.FailureReport, attempt int) {
			w.reportRetx++
			if w.inv != nil && rep.Seq > 0 {
				w.inv.ReportRetx(rep.Reporter, rep.Seq)
			}
			if w.telReportRetx != nil {
				w.telReportRetx.Add(float64(attempt))
			}
			w.trace(trace.Event{
				At: w.Sched.Now(), Kind: trace.KindReportRetx,
				Node: rep.Failed, Actor: rep.Reporter, Loc: rep.Loc,
			})
		},
		OnReportAbandoned: func(rep wire.FailureReport) {
			w.reportsAban++
		},
	}
	if w.inv != nil {
		hooks.OnReportAcked = func(ack wire.ReportAck) {
			w.inv.ReportAcked(ack.Reporter, ack.Seq)
		}
	}
	s := node.NewSensor(id, pos, w.sensorConfig(), w.policy, w.Medium, hooks)
	if replacement {
		s.SetTarget(target, targetLoc)
	}
	w.Sensors[id] = s
	if w.inv != nil {
		w.inv.SensorSpawned(id, pos)
	}
	if w.siteIDs != nil {
		w.siteIDs[pos] = append(w.siteIDs[pos], id)
	}
	w.Injector.Arm(s)
	announce := sim.Duration(jitter.Uniform(0.05, 1.0))
	if replacement {
		announce = 0
	}
	s.Start(announce, sim.Duration(jitter.Jitter(w.Cfg.BeaconPeriod)), replacement)
	return s
}

// spawnReplacement implements robot.Hooks.SpawnReplacement.
func (w *World) spawnReplacement(r *robot.Robot, loc geom.Point) radio.NodeID {
	if w.siteIDs != nil {
		for _, id := range w.siteIDs[loc] {
			s := w.Sensors[id]
			if s == nil || !s.Alive() {
				continue
			}
			// A live sensor already covers this site — an earlier
			// replacement, or the original that a radio blackout made look
			// dead. The visit was a duplicate repair, not a replacement.
			w.dupRepairs++
			w.dupRepair = true
			if w.inv != nil {
				w.inv.DuplicateVisit(loc)
			}
			return id
		}
	}
	var target radio.NodeID
	var targetLoc geom.Point
	if id, mloc, ok := r.ManagerTarget(); ok {
		// Reliability extension: the deploying robot tracks the current
		// manager (elected after a crash, or the configured one).
		target, targetLoc = id, mloc
	} else if w.Manager != nil {
		target, targetLoc = w.Manager.ID(), w.Manager.Pos()
	} else {
		target, targetLoc = r.ID(), r.Pos()
	}
	s := w.spawnSensor(loc, rng.Split(w.Cfg.Seed, "respawn-jitter"), true, target, targetLoc)
	return s.ID()
}

// requestIssued counts and traces a repair request dispatched by the
// central manager or by a robot that took the manager role over.
func (w *World) requestIssued(req wire.RepairRequest, to radio.NodeID) {
	w.requestsIssued++
	w.trace(trace.Event{
		At: w.Sched.Now(), Kind: trace.KindDispatch,
		Node: req.Failed, Actor: to, Loc: req.Loc,
	})
}

// requestRedispatched counts and traces a repair request re-issued after
// its robot died or never acknowledged it.
func (w *World) requestRedispatched(req wire.RepairRequest, to radio.NodeID, _ int) {
	w.redispatches++
	w.trace(trace.Event{
		At: w.Sched.Now(), Kind: trace.KindRedispatch,
		Node: req.Failed, Actor: to, Loc: req.Loc,
	})
}

// Run executes the simulation to the configured horizon and returns the
// collected results.
func (w *World) Run() Results {
	// Count natural failures as they are injected: every sensor armed by
	// the injector that dies within the horizon.
	w.Sched.Run(sim.Time(w.Cfg.SimTime))
	w.failuresInjected = w.Injector.Killed()
	w.finalizeInvariants()
	return w.results()
}

func (w *World) results() Results {
	reg := w.Registry
	res := Results{
		Config:            w.Cfg,
		FailuresInjected:  w.failuresInjected,
		ReportsSent:       w.reportsSent,
		ReportsDelivered:  w.reportsDelivered,
		RequestsIssued:    w.requestsIssued,
		RequestsDelivered: w.requestsDelivered,
		Repairs:           w.repairs,
		Registry:          reg,
		Telemetry:         w.Telemetry,
	}
	res.AvgTravelPerFailure = reg.Series(metrics.SeriesTravelPerFailure).Mean()
	res.AvgReportHops = reg.Series(metrics.SeriesReportHops).Mean()
	res.AvgRequestHops = reg.Series(metrics.SeriesRequestHops).Mean()
	res.AvgRepairDelay = reg.Series(metrics.SeriesRepairDelay).Mean()
	if h := reg.Hist(HistRepairDelay); h != nil {
		res.RepairDelayP95 = h.Quantile(0.95)
	}
	if cov := reg.Series(metrics.SeriesCoverage); cov.N() > 0 {
		res.MeanCoverage = cov.Mean()
		res.MinCoverage = cov.Min()
	}
	for _, r := range w.Robots {
		res.TotalTravel += r.Traveled()
	}
	res.LocUpdateTx = reg.Tx(metrics.CatLocUpdate)
	if w.repairs > 0 {
		res.LocUpdateTxPerFailure = float64(res.LocUpdateTx) / float64(w.repairs)
	}
	res.UnrepairedFailures = w.unrepairedSites()
	res.StrandedTasks = w.strandedTasks
	res.RequeuedTasks = w.requeuedTasks
	res.ReportRetx = w.reportRetx
	res.ReportsAbandoned = w.reportsAban
	res.Redispatches = w.redispatches
	res.ManagerTakeovers = w.takeovers
	res.DuplicateRepairs = w.dupRepairs
	if s := reg.Series(metrics.SeriesFaultRecovery); s.N() > 0 {
		res.MeanFaultRecovery = s.Mean()
	}
	res.CorruptedFrames = reg.Tx(radio.CatCorruptFrame)
	res.DroppedMalformed = reg.Tx(radio.CatMalformed)
	if w.Manager != nil {
		res.ReplayRejected += w.Manager.ReplayRejected()
	}
	for _, r := range w.Robots {
		res.ReplayRejected += r.ReplayRejected()
	}
	for _, s := range w.Sensors {
		// Map order varies; a sum of counters is commutative.
		res.ReplayRejected += s.ReplayRejected()
	}
	if w.Cfg.Battery != nil {
		res.RobotEnergy = make([]RobotPower, 0, len(w.Robots))
		for _, r := range w.Robots {
			b := r.SettledBattery() // the lazily-accrued tail folded in, read-only
			rp := RobotPower{
				Robot:      int(r.ID()),
				SpentJ:     b.SpentJ,
				RemainingJ: b.RemainingJ,
				RechargedJ: b.RechargedJ,
				Recharges:  r.Recharges(),
				Handoffs:   r.Handoffs(),
				Died:       r.BatteryDied(),
				DiedAtS:    float64(r.DiedAt()),
			}
			res.EnergySpentJ += rp.SpentJ
			res.Recharges += rp.Recharges
			res.TaskHandoffs += rp.Handoffs
			if rp.Died {
				res.RobotDeaths++
			}
			res.RobotEnergy = append(res.RobotEnergy, rp)
		}
	}
	if w.inv != nil {
		res.Violations = w.inv.Violations()
	}
	if w.Telemetry != nil {
		res.TelemetryDropped = w.Telemetry.Sampler().Dropped()
	}
	res.Recording = w.Recorder
	return res
}

// unrepairedSites counts deployment sites where every sensor ever placed
// (original and replacements alike) is dead at the horizon: a failure
// happened there and nothing covers it. Sites where a false-positive
// repair left a live spare next to a later-dying original still count as
// covered — some node answers for that spot.
func (w *World) unrepairedSites() int {
	alive := make(map[geom.Point]bool, len(w.Sensors))
	dead := make(map[geom.Point]bool)
	for _, s := range w.Sensors {
		if s.Alive() {
			alive[s.Pos()] = true
		} else {
			dead[s.Pos()] = true
		}
	}
	n := 0
	for pos := range dead {
		if !alive[pos] {
			n++
		}
	}
	return n
}

// HistRepairDelay is the registry name of the repair-delay histogram.
const HistRepairDelay = "repair_delay_hist"

// Run is the one-call entry point: build a world from cfg and run it.
func Run(cfg Config) (Results, error) {
	w, err := New(cfg)
	if err != nil {
		return Results{}, err
	}
	return w.Run(), nil
}
