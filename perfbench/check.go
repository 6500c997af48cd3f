package main

import (
	"fmt"
	"io"
	"math"

	"roborepair/internal/metrics"
	"roborepair/internal/scenario"
)

// checker counts attempted and failed operations: program calls that can
// return an error, and checks of the program's outputs.
type checker struct {
	attempted, failed int
	log               io.Writer // each failure is described here
}

// op records one program call; it reports whether the call succeeded.
func (c *checker) op(name string, err error) bool {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(c.log, "FAIL %s: %v\n", name, err)
	}
	return err == nil
}

// expect records one output check; it reports whether the check held.
func (c *checker) expect(name string, ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "FAIL %s: %s\n", name, fmt.Sprintf(format, args...))
	}
	return ok
}

// Fingerprint is the part of a run's simulated statistics that the
// benchmark pins at DefaultSeed: any change to what the simulator computes
// moves at least one of them.
type Fingerprint struct {
	Failures      int
	Repairs       int
	AvgTravel     float64
	AvgReportHops float64
	LocUpdateTx   uint64
	Events        uint64
}

func fingerprint(res scenario.Results, events uint64) Fingerprint {
	return Fingerprint{
		Failures:      res.FailuresInjected,
		Repairs:       res.Repairs,
		AvgTravel:     res.AvgTravelPerFailure,
		AvgReportHops: res.AvgReportHops,
		LocUpdateTx:   res.LocUpdateTx,
		Events:        events,
	}
}

// pinned holds each workload's fingerprint at simulation seed DefaultSeed.
var pinned = map[string]Fingerprint{
	"paper16":      {Failures: 84, Repairs: 73, AvgTravel: 98.9832396633066, AvgReportHops: 2.325, LocUpdateTx: 19502, Events: 160911},
	"megafield20k": {Failures: 2394, Repairs: 0, AvgTravel: 0, AvgReportHops: 8.053596614950635, LocUpdateTx: 12594, Events: 230369},
	"fullstack16":  {Failures: 168, Repairs: 75, AvgTravel: 114.41196476430937, AvgReportHops: 8.27, LocUpdateTx: 48151, Events: 351799},
}

// same compares fingerprints, with floats equal to a relative 1e-9.
func (f Fingerprint) same(g Fingerprint) bool {
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	return f.Failures == g.Failures && f.Repairs == g.Repairs &&
		close(f.AvgTravel, g.AvgTravel) && close(f.AvgReportHops, g.AvgReportHops) &&
		f.LocUpdateTx == g.LocUpdateTx && f.Events == g.Events
}

// checkResults checks one rep of the named workload against the laws every
// seed obeys, and against the pinned fingerprint at DefaultSeed.
func checkResults(name string, r *rep, res scenario.Results, chk *checker) {
	chk.expect("repairs<=failures", res.Repairs <= res.FailuresInjected,
		"%d repairs for %d failures", res.Repairs, res.FailuresInjected)
	// Every delivery is of an original report or a retransmission
	// (ReportRetx is 0 with the reliability layer off).
	chk.expect("reports delivered<=sent", res.ReportsDelivered <= res.ReportsSent+res.ReportRetx,
		"%d reports delivered of %d sent + %d retransmitted", res.ReportsDelivered, res.ReportsSent, res.ReportRetx)
	chk.expect("invariant violations", len(res.Violations) == 0,
		"%d violations, first %v", len(res.Violations), res.Violations)
	var sum uint64
	for _, c := range res.Registry.Categories() {
		sum += res.Registry.Tx(c)
	}
	chk.expect("Σ tx by category", sum == res.Registry.TotalTx(),
		"categories sum to %d, TotalTx %d", sum, res.Registry.TotalTx())
	chk.expect("events", r.events > 0 && res.Registry.Tx(metrics.CatBeacon) > 0,
		"%d events, %d beacons", r.events, res.Registry.Tx(metrics.CatBeacon))
	if r.seed == DefaultSeed {
		want := pinned[name]
		chk.expect("fingerprint", r.fp.same(want), "got %+v, pinned %+v", r.fp, want)
	}
}

// checkSameRun checks that rep r reproduced rep first of the same seed.
func checkSameRun(first, r *rep, chk *checker) {
	same := r.fp.same(first.fp) && len(r.counts) == len(first.counts)
	for i := 0; same && i < len(r.counts); i++ {
		same = r.counts[i] == first.counts[i]
	}
	chk.expect("deterministic rerun", same, "rerun gave %+v %v, first run %+v %v", r.fp, r.counts, first.fp, first.counts)
}
