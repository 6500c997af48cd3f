package scenario

import (
	"roborepair/internal/invariant"
)

// startInvariants builds the run's conservation-law checker and installs
// the kernel and medium probes. Called before any sensor or robot is
// created so their hooks can be wired conditionally: with invariants off
// every instrumented path keeps its plain nil check and the run is
// bit-identical to an unchecked one.
func (w *World) startInvariants() {
	w.inv = invariant.NewChecker(w.Cfg.Invariants, w.Sched.Now)
	w.inv.SetRobotSpeed(w.Cfg.RobotSpeed)
	if bc := w.Cfg.Battery; bc != nil {
		// Joules per meter at cruise speed: the motion-floor cross-check of
		// the energy-conservation law (spent must cover every traveled meter).
		b := bc.withDefaults()
		w.inv.SetMotionEnergy(b.model().MotionPowerW(w.Cfg.RobotSpeed) / w.Cfg.RobotSpeed)
	}
	w.Sched.SetAudit(w.inv.KernelAudit())
	w.Medium.SetAuditor(w.inv)
}

// finalizeInvariants runs the end-of-run conservation cross-checks
// against the same counters results() reports.
func (w *World) finalizeInvariants() {
	if w.inv == nil {
		return
	}
	if w.Cfg.Battery != nil {
		for _, r := range w.Robots {
			b := r.SettledBattery()
			w.inv.RobotEnergy(r.ID(), b.CapacityJ, b.SpentJ, b.RemainingJ, b.RechargedJ, r.Traveled())
		}
	}
	w.inv.Finalize(invariant.Totals{
		FailuresInjected:   w.failuresInjected,
		Repairs:            w.repairs,
		DuplicateRepairs:   w.dupRepairs,
		UnrepairedFailures: w.unrepairedSites(),
	})
}
