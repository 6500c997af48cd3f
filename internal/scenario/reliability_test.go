package scenario_test

import (
	"encoding/json"
	"testing"

	"roborepair/internal/chaos"
	"roborepair/internal/core"
	"roborepair/internal/failure"
	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/runner"
	"roborepair/internal/scenario"
	"roborepair/internal/sim"
	"roborepair/internal/trace"
	"roborepair/internal/wire"
)

// relConfig is a small reliability-enabled run: 4 robots, short horizon.
// The default lifetime keeps the offered failure load well inside the
// fleet's repair capacity — robustness tests kill robots mid-run, and a
// system overloaded by design can't degrade gracefully.
func relConfig(alg core.Algorithm) scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Algorithm = alg
	cfg.SimTime = 8000
	cfg.Reliability.Enabled = true
	return cfg
}

// TestReportDeliveryUnderLoss runs each algorithm through sustained 10%
// Bernoulli loss with the reliability protocol on: no report may exhaust
// its retry budget, and the network must keep repairing (the unrepaired
// residue is bounded by the horizon tail, not by lost reports).
func TestReportDeliveryUnderLoss(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Centralized, core.Fixed, core.Dynamic} {
		cfg := relConfig(alg)
		cfg.LossP = 0.1
		res, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.FailuresInjected == 0 || res.Repairs == 0 {
			t.Fatalf("%v: degenerate run: %d failures, %d repairs", alg, res.FailuresInjected, res.Repairs)
		}
		if res.ReportsAbandoned != 0 {
			t.Errorf("%v: %d reports abandoned under 10%% loss", alg, res.ReportsAbandoned)
		}
		if res.ReportRetx == 0 {
			t.Errorf("%v: loss run produced no retransmissions — retry path not exercised", alg)
		}
		if lim := res.FailuresInjected / 4; res.UnrepairedFailures > lim {
			t.Errorf("%v: %d of %d failures unrepaired (limit %d)",
				alg, res.UnrepairedFailures, res.FailuresInjected, lim)
		}
	}
}

// dropFirstReport loses exactly the first failure-report frame of the run
// (every later frame, including retransmissions, passes) and remembers
// which failure it silenced.
type dropFirstReport struct {
	dropped bool
	failed  radio.NodeID
	loc     geom.Point
	at      sim.Time
	now     func() sim.Time
}

func (d *dropFirstReport) Drop(radio.NodeID, radio.NodeID) bool { return false }

func (d *dropFirstReport) DropFrame(f radio.Frame, _ radio.NodeID) bool {
	if d.dropped || f.Category != metrics.CatFailureReport {
		return false
	}
	p, ok := f.Payload.(netstack.Packet)
	if !ok {
		return false
	}
	rep, ok := p.Payload.(wire.FailureReport)
	if !ok {
		return false
	}
	d.dropped = true
	d.failed, d.loc, d.at = rep.Failed, rep.Loc, d.now()
	return true
}

// repairedAfter reports whether the site at loc was repaired after t: a
// replacement was deployed there, or a sensor at that exact position is
// alive at the horizon.
func repairedAfter(w *scenario.World, loc geom.Point, t sim.Time) bool {
	for _, ev := range w.Trace.Events() {
		if ev.Kind == trace.KindReplacement && ev.At > t && ev.Loc.Dist2(loc) <= 1e-6 {
			return true
		}
	}
	for _, s := range w.Sensors {
		if s.Alive() && s.Pos().Dist2(loc) <= 1e-6 {
			return true
		}
	}
	return false
}

// TestSingleLostReportStrandsOnlyWithoutRetry is the regression test for
// the paper protocol's sharpest edge: one lost failure report used to
// strand the failure forever. With retransmission the same loss is
// absorbed.
func TestSingleLostReportStrandsOnlyWithoutRetry(t *testing.T) {
	run := func(reliable bool) (*scenario.World, *dropFirstReport) {
		cfg := scenario.DefaultConfig()
		cfg.Algorithm = core.Dynamic
		cfg.SimTime = 6000
		cfg.MeanLifetime = 8000
		cfg.TraceCapacity = -1
		cfg.Reliability.Enabled = reliable
		w, err := scenario.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := &dropFirstReport{now: w.Sched.Now}
		d.now = w.Sched.Now
		// Wrap the (lossless) configured model: only the targeted frame drops.
		w.Medium.SetLoss(d)
		w.Run()
		if !d.dropped {
			t.Fatal("no failure report was ever sent; run too short")
		}
		return w, d
	}

	w, d := run(false)
	if repairedAfter(w, d.loc, d.at) {
		t.Errorf("fire-and-forget: node %d's site repaired despite its only report being lost", d.failed)
	}

	w, d = run(true)
	if !repairedAfter(w, d.loc, d.at) {
		t.Errorf("reliable: node %d's site never repaired after its first report was lost", d.failed)
	}
}

// TestFaultPlanDeterministicAcrossProcs guards replayability: the same
// (config, fault plan, seed) must produce byte-identical Results whether
// the grid runs on 1 worker or 4.
func TestFaultPlanDeterministicAcrossProcs(t *testing.T) {
	plan, err := chaos.Parse("robot@1500=0;burst@1500-3000=0.05;blackout@800-1200=100,100,80;mgr@3500")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []runner.Job
	for _, alg := range []core.Algorithm{core.Centralized, core.Fixed, core.Dynamic} {
		cfg := relConfig(alg)
		cfg.SimTime = 5000
		cfg.Faults = plan
		jobs = append(jobs, runner.Job{Config: cfg})
	}
	serial, _, err := runner.Run(jobs, runner.Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := runner.Run(jobs, runner.Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		a, err := json.Marshal(serial[i].Res)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(parallel[i].Res)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("job %d: fault-plan run differs between 1 and 4 workers:\n%s\n%s", i, a, b)
		}
	}
}

// TestReliabilityCountersInertByDefault guards the gating principle: with
// no fault plan and the reliability protocol disabled, none of the
// robustness machinery may leave a trace in the results.
func TestReliabilityCountersInertByDefault(t *testing.T) {
	cfg := scenario.DefaultConfig()
	cfg.SimTime = 4000
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReportRetx != 0 || res.ReportsAbandoned != 0 || res.StrandedTasks != 0 ||
		res.RequeuedTasks != 0 || res.Redispatches != 0 || res.ManagerTakeovers != 0 ||
		res.DuplicateRepairs != 0 || res.MeanFaultRecovery != 0 {
		t.Fatalf("robustness counters non-zero on a default run: %+v", res)
	}
}

// TestGracefulDegradationDynamic is the acceptance scenario: the dynamic
// algorithm loses 1 of 4 robots mid-run under a 5% loss burst, and the
// reliability layer must degrade gracefully — the dead robot's tasks are
// re-queued and served, no report is abandoned, and every failure with
// time to spare before the horizon is repaired.
func TestGracefulDegradationDynamic(t *testing.T) {
	plan, err := chaos.Parse("robot@4000=0;burst@4000-8000=0.05")
	if err != nil {
		t.Fatal(err)
	}
	cfg := relConfig(core.Dynamic)
	cfg.SimTime = 16000
	cfg.Faults = plan
	cfg.TraceCapacity = -1
	w, err := scenario.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A correlated failure burst 100 s before the robot breakdown, centered
	// on the doomed robot, loads its queue so the breakdown is guaranteed
	// to strand tasks (detection ≈ 30 s, confirmation grace 20 s, dynamic
	// dispatch picks the nearest — burst-central — robot). The radius stays
	// below the sensor radio range so every victim has a live witness.
	population := make([]failure.Failable, 0, len(w.Sensors))
	for _, s := range w.Sensors {
		population = append(population, s)
	}
	w.Injector.ScheduleBurst(failure.Burst{At: 3900, Center: w.Robots[0].Pos(), Radius: 55}, population)
	res := w.Run()

	if res.StrandedTasks == 0 {
		t.Fatal("robot death stranded no tasks; scenario not exercised")
	}
	if res.RequeuedTasks != res.StrandedTasks {
		t.Errorf("stranded %d tasks but re-queued %d", res.StrandedTasks, res.RequeuedTasks)
	}
	if res.ReportsAbandoned != 0 {
		t.Errorf("%d reports abandoned", res.ReportsAbandoned)
	}

	// Every failure injected with at least `slack` left before the horizon
	// must be repaired (a replacement deployed at its site, or the site
	// alive at the end). The slack absorbs detection, dispatch, travel,
	// and the fault window's backlog.
	const slack = 4000
	cut := sim.Time(cfg.SimTime - slack)
	for _, ev := range w.Trace.Events() {
		if ev.Kind != trace.KindFailure || ev.At > cut {
			continue
		}
		if !repairedAfter(w, ev.Loc, ev.At) {
			t.Errorf("failure of node %d at t=%.0f (site %.1f,%.1f) never repaired",
				ev.Node, float64(ev.At), ev.Loc.X, ev.Loc.Y)
		}
	}
}

// TestCentralizedManagerFailover crashes the static manager mid-run: a
// robot must take over dispatching and repairs must continue afterwards.
func TestCentralizedManagerFailover(t *testing.T) {
	plan, err := chaos.Parse("mgr@2000")
	if err != nil {
		t.Fatal(err)
	}
	cfg := relConfig(core.Centralized)
	cfg.SimTime = 10000
	cfg.Faults = plan
	cfg.TraceCapacity = -1
	w, err := scenario.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()

	if res.ManagerTakeovers == 0 {
		t.Fatal("manager crash triggered no takeover")
	}
	if w.Manager.Alive() {
		t.Fatal("manager still alive after planned crash")
	}
	var repairsAfter int
	for _, ev := range w.Trace.Events() {
		// Leave a grace for in-flight pre-crash dispatches: only repairs
		// well after the crash prove the new manager is dispatching.
		if ev.Kind == trace.KindReplacement && ev.At > 4000 {
			repairsAfter++
		}
	}
	if repairsAfter == 0 {
		t.Fatal("no repairs completed after the manager crash")
	}
	if res.MeanFaultRecovery <= 0 {
		t.Error("manager crash recovery time not measured")
	}
}

// TestSuccessorManagerRequestsCounted: the robot that takes the manager
// role over after a crash dispatches repair requests of its own, and
// Results.RequestsIssued counts them as it counts the static manager's —
// every dispatch in the trace, before and after the takeover.
func TestSuccessorManagerRequestsCounted(t *testing.T) {
	plan, err := chaos.Parse("mgr@2000")
	if err != nil {
		t.Fatal(err)
	}
	cfg := relConfig(core.Centralized)
	cfg.Faults = plan
	cfg.TraceCapacity = -1
	w, err := scenario.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if res.ManagerTakeovers == 0 {
		t.Fatal("manager crash triggered no takeover")
	}
	var takeoverAt sim.Time = -1
	var dispatches, after int
	for _, ev := range w.Trace.Events() {
		switch ev.Kind {
		case trace.KindTakeover:
			if takeoverAt < 0 {
				takeoverAt = ev.At
			}
		case trace.KindDispatch:
			dispatches++
			if takeoverAt >= 0 {
				after++
			}
		}
	}
	if after == 0 {
		t.Fatal("no dispatches traced after the takeover")
	}
	if res.RequestsIssued != dispatches {
		t.Errorf("RequestsIssued = %d, trace holds %d dispatches", res.RequestsIssued, dispatches)
	}
	if res.RequestsDelivered > res.RequestsIssued+res.Redispatches {
		t.Errorf("%d requests delivered, only %d issued and %d re-issued",
			res.RequestsDelivered, res.RequestsIssued, res.Redispatches)
	}
	t.Logf("issued %d (%d after the takeover at t=%.0f), re-issued %d, delivered %d",
		res.RequestsIssued, after, float64(takeoverAt), res.Redispatches, res.RequestsDelivered)
}
