package scenario

import (
	"math"
	"reflect"
	"testing"

	"roborepair/internal/chaos"
	"roborepair/internal/checkpoint"
	"roborepair/internal/core"
	"roborepair/internal/invariant"
	"roborepair/internal/sim"
	"roborepair/internal/trace"
)

// batteryTestConfig is the energy-layer test base: a short busy horizon
// with tracing and the conservation-law checker on, so every run doubles
// as an energy-accounting audit.
func batteryTestConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.SimTime = 3000
	cfg.MeanLifetime = 4000
	cfg.Seed = seed
	cfg.TraceCapacity = -1
	cfg.Invariants.Enabled = true
	return cfg
}

// assertLedgersClose checks the double-entry identity spent + remaining ==
// capacity + recharged for every robot in the results.
func assertLedgersClose(t *testing.T, res Results) {
	t.Helper()
	cap := res.Config.Battery.CapacityJ
	for _, rp := range res.RobotEnergy {
		diff := rp.SpentJ + rp.RemainingJ - (cap + rp.RechargedJ)
		if math.Abs(diff) > 1e-6*cap+1e-6 {
			t.Errorf("robot %d ledger open by %g J (spent=%g remaining=%g recharged=%g cap=%g)",
				rp.Robot, diff, rp.SpentJ, rp.RemainingJ, rp.RechargedJ, cap)
		}
	}
}

// TestBatteryStarvationFleetDies: with no charger, every robot spends its
// budget and dies in place; the books still balance and no conservation
// law breaks while the survivors degrade gracefully.
func TestBatteryStarvationFleetDies(t *testing.T) {
	cfg := batteryTestConfig(7)
	cfg.Battery = &BatteryConfig{CapacityJ: 20000} // ~1540 s of idle draw
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if len(res.Violations) != 0 {
		t.Fatalf("violations under starvation: %v", res.Violations[0])
	}
	if res.RobotDeaths != cfg.Robots {
		t.Errorf("RobotDeaths = %d, want the whole fleet (%d)", res.RobotDeaths, cfg.Robots)
	}
	if res.Recharges != 0 {
		t.Errorf("Recharges = %d without a charger", res.Recharges)
	}
	if res.EnergySpentJ <= 0 {
		t.Error("EnergySpentJ not positive")
	}
	assertLedgersClose(t, res)
	for _, rp := range res.RobotEnergy {
		if !rp.Died {
			t.Errorf("robot %d survived a %g J budget over %g s", rp.Robot, cfg.Battery.CapacityJ, cfg.SimTime)
			continue
		}
		if rp.RemainingJ != 0 {
			t.Errorf("dead robot %d has %g J remaining", rp.Robot, rp.RemainingJ)
		}
		if rp.DiedAtS <= 0 || rp.DiedAtS > cfg.SimTime {
			t.Errorf("robot %d died at %g s, outside (0, %g]", rp.Robot, rp.DiedAtS, cfg.SimTime)
		}
	}
	if n := w.Trace.Count(trace.KindBatteryDeath); n != res.RobotDeaths {
		t.Errorf("trace has %d battery-death events, results report %d deaths", n, res.RobotDeaths)
	}
}

// TestBatteryRechargeSustainsFleet: with a depot charger and a sane pack,
// robots detour to top up instead of dying; the fleet survives the horizon
// and keeps repairing.
func TestBatteryRechargeSustainsFleet(t *testing.T) {
	cfg := batteryTestConfig(7)
	cfg.Battery = &BatteryConfig{CapacityJ: 30000, RechargeW: 250}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if len(res.Violations) != 0 {
		t.Fatalf("violations under recharge: %v", res.Violations[0])
	}
	if res.RobotDeaths != 0 {
		t.Errorf("RobotDeaths = %d with a charger available", res.RobotDeaths)
	}
	if res.Recharges == 0 {
		t.Error("no recharges over a horizon twice the pack's idle life")
	}
	if res.Repairs == 0 {
		t.Error("no repairs; the fleet should keep working between top-ups")
	}
	if n := w.Trace.Count(trace.KindRecharge); n != res.Recharges {
		t.Errorf("trace has %d recharge events, results report %d", n, res.Recharges)
	}
	assertLedgersClose(t, res)
}

// TestBatteryHandoffRequeues: a pack too small for round trips forces
// admission declines; declined tasks are handed back, reassigned, and the
// books stay closed.
func TestBatteryHandoffRequeues(t *testing.T) {
	cfg := batteryTestConfig(3)
	cfg.MeanLifetime = 2000 // busier field: more tasks to decline
	cfg.Battery = &BatteryConfig{CapacityJ: 8000, RechargeW: 500}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if len(res.Violations) != 0 {
		t.Fatalf("violations under handoff pressure: %v", res.Violations[0])
	}
	if res.TaskHandoffs == 0 {
		t.Error("no task handoffs despite an undersized pack")
	}
	if n := w.Trace.Count(trace.KindTaskHandoff); n != res.TaskHandoffs {
		t.Errorf("trace has %d handoff events, results report %d", n, res.TaskHandoffs)
	}
	if res.Repairs == 0 {
		t.Error("no repairs; handed-off work should still get done")
	}
	assertLedgersClose(t, res)
}

// TestBatteryDrainKillsTargetRobot: an adversarial drain window aimed at
// one robot kills exactly it, inside the window, without breaking any law.
func TestBatteryDrainKillsTargetRobot(t *testing.T) {
	plan, err := chaos.Parse("drain@500-1500=3,0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := batteryTestConfig(7)
	cfg.Faults = plan
	// Sized so undrained robots outlast the horizon (a saturated robot
	// draws ≈31.6 W, ≈95 kJ over 3000 s) while 3× capacity over 1000 s
	// kills the target long before the window closes.
	cfg.Battery = &BatteryConfig{CapacityJ: 120000}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations under drain: %v", res.Violations[0])
	}
	if res.RobotDeaths != 1 {
		t.Fatalf("RobotDeaths = %d, want exactly the drained robot", res.RobotDeaths)
	}
	rp := res.RobotEnergy[0]
	if !rp.Died {
		t.Fatal("robot 0 survived a 3×-capacity drain window")
	}
	if rp.DiedAtS < 500 || rp.DiedAtS > 1500 {
		t.Errorf("drained robot died at %g s, outside the 500–1500 window", rp.DiedAtS)
	}
	assertLedgersClose(t, res)
}

// TestBatteryOffDrainPlanInert: without the battery layer a drain plan
// must schedule nothing at all — the run is bit-identical to a planless
// one, trace included.
func TestBatteryOffDrainPlanInert(t *testing.T) {
	plan, err := chaos.Parse("drain@500-1500=3")
	if err != nil {
		t.Fatal(err)
	}
	base := batteryTestConfig(7)
	withPlan := base
	withPlan.Faults = plan
	wA, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	resA := wA.Run()
	wB, err := New(withPlan)
	if err != nil {
		t.Fatal(err)
	}
	resB := wB.Run()
	if resA.Repairs != resB.Repairs || resA.FailuresInjected != resB.FailuresInjected ||
		resA.TotalTravel != resB.TotalTravel || resA.EnergySpentJ != resB.EnergySpentJ {
		t.Errorf("drain plan perturbed a battery-off run: %+v vs %+v", resA.Summary(), resB.Summary())
	}
	if !reflect.DeepEqual(wA.Trace.Events(), wB.Trace.Events()) {
		t.Error("drain plan left trace marks in a battery-off run")
	}
}

// TestEnergyConservationMutationCaught is the seeded-mutation acceptance
// test: silently un-debiting part of one robot's ledger must trip the
// energy-conservation law at finalize.
func TestEnergyConservationMutationCaught(t *testing.T) {
	cfg := batteryTestConfig(7)
	cfg.Battery = &BatteryConfig{CapacityJ: 30000, RechargeW: 250}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Sched.Run(sim.Time(cfg.SimTime))
	w.failuresInjected = w.Injector.Killed()
	w.Robots[0].SettleEnergy()
	w.Robots[0].Battery().SpentJ -= 500 // the seeded bug: a leg's debit goes missing
	w.finalizeInvariants()
	res := w.results()
	found := false
	for _, v := range res.Violations {
		if v.Law == invariant.LawEnergyConservation {
			found = true
		}
	}
	if !found {
		t.Fatalf("skipped energy debit not caught; violations: %v", res.Violations)
	}
}

// TestBatteryCheckpointRestore: the battery's dynamic state rides
// snapshots — a run killed mid-drain-window and restored finishes
// bit-identical to an uninterrupted one.
func TestBatteryCheckpointRestore(t *testing.T) {
	plan, err := chaos.Parse("drain@400-1200=0.5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := batteryTestConfig(11)
	cfg.Algorithm = core.Dynamic
	cfg.SimTime = 2500
	cfg.Faults = plan
	cfg.Reliability.Enabled = true
	cfg.Battery = &BatteryConfig{CapacityJ: 30000, RechargeW: 250}

	wA, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resA := resultsJSON(t, wA.Run())
	traceA := wA.Trace.Events()

	wB, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	if _, err := wB.RunCheckpointed(CheckpointOptions{
		Every: 600,
		OnSnapshot: func(s *checkpoint.Snapshot) error {
			if s.T == 600 { // inside the drain window: extraDrainW is live state
				b, err := checkpoint.Encode(s)
				if err != nil {
					return err
				}
				blob = b
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no snapshot captured at t=600")
	}
	snap, err := checkpoint.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	wC, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultsJSON(t, wC.Run()); got != resA {
		t.Errorf("restored battery run diverged:\n got %s\nwant %s", got, resA)
	}
	if !reflect.DeepEqual(wC.Trace.Events(), traceA) {
		t.Error("restored battery run trace diverged")
	}
}

// TestBatterySnapshotAfterRunRestores: end-of-run reporting reads the
// energy ledgers without settling them into the robots, so a snapshot
// taken after Run still matches a replay to the horizon and restores, and
// the restored world reports the same results.
func TestBatterySnapshotAfterRunRestores(t *testing.T) {
	cfg := batteryTestConfig(5)
	cfg.SimTime = 1500
	cfg.Battery = &BatteryConfig{CapacityJ: 30000, RechargeW: 250}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := resultsJSON(t, w.Run())
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := checkpoint.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = checkpoint.Decode(blob); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(snap)
	if err != nil {
		t.Fatalf("restore of a post-Run snapshot: %v", err)
	}
	if got := resultsJSON(t, restored.Run()); got != want {
		t.Errorf("restored world reports different results:\n got %s\nwant %s", got, want)
	}
}
