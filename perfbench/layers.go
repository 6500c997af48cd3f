package main

import (
	"roborepair/internal/metrics"
	"roborepair/internal/scenario"
)

// metric is one named, unit-carrying number the benchmark reports.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// txCategories are the traffic categories reported one by one; every
// other registry counter (retransmissions, takeovers, collisions, drops,
// corrupt frames) is summed into radio.tx.other so that the radio.tx.*
// metrics add up to radio.tx_total.
var txCategories = []string{
	metrics.CatBeacon, metrics.CatInit, metrics.CatLocUpdate, metrics.CatFailureReport,
	metrics.CatRepairRequest, metrics.CatReplacement, metrics.CatAck,
}

// repCounts reads one rep's per-layer counts through the program's public
// accessors. They repeat exactly for a simulation seed, which
// checkSameRun verifies.
func repCounts(r *rep, res scenario.Results) []metric {
	reg := res.Registry
	out := []metric{
		{"sim.events", "count", float64(r.events)},
		{"sim.queue_highwater", "count", float64(r.highWater)},
		{"radio.tx_total", "count", float64(reg.TotalTx())},
	}
	other := reg.TotalTx()
	for _, c := range txCategories {
		out = append(out, metric{"radio.tx." + c, "count", float64(reg.Tx(c))})
		other -= reg.Tx(c)
	}
	return append(out,
		metric{"radio.tx.other", "count", float64(other)},
		metric{"radio.collisions", "count", float64(reg.Tx("collision"))},
		metric{"netstack.table_entries", "count", float64(r.tableLen)},
		metric{"netstack.report_hops", "hops", res.AvgReportHops},
		metric{"netstack.route_drops", "count", float64(reg.Tx("drop_ttl") + reg.Tx("drop_stuck"))},
		metric{"netstack.report_delivery_ratio", "ratio", res.ReportDeliveryRatio()},
		metric{"robot.repairs", "count", float64(res.Repairs)},
		metric{"robot.repair_ratio", "ratio", res.RepairRatio()},
		metric{"robot.travel_m", "m", res.TotalTravel},
		metric{"energy.recharges", "count", float64(res.Recharges)},
		metric{"energy.deaths", "count", float64(res.RobotDeaths)},
		metric{"energy.handoffs", "count", float64(res.TaskHandoffs)},
		metric{"reliability.report_retx", "count", float64(res.ReportRetx)},
		metric{"reliability.redispatches", "count", float64(res.Redispatches)},
		metric{"chaos.corrupted_frames", "count", float64(res.CorruptedFrames)},
		metric{"chaos.dropped_malformed", "count", float64(res.DroppedMalformed)},
		metric{"chaos.replay_rejected", "count", float64(res.ReplayRejected)},
		metric{"invariant.violations", "count", float64(len(res.Violations))},
		metric{"ftdc.bytes", "B", float64(r.ftdcBytes)},
		metric{"telemetry.dropped", "count", float64(res.TelemetryDropped)},
		metric{"checkpoint.bytes", "B", float64(r.ckptBytes)},
	)
}

// layerCounts reduces the reps' per-layer numbers: counts by acrossSeeds,
// times by overReps, like the end-to-end metrics.
func layerCounts(wl Workload, reps []*rep) []metric {
	out := []metric{
		{"sim.ns_per_event", "ns", overReps(reps, func(r *rep) float64 { return float64(r.run.Nanoseconds()) / float64(r.events) })},
		{"sim.wall_sim_s_per_s", "sim-s/s", overReps(reps, func(r *rep) float64 { return wl.Cfg.SimTime / r.runWall.Seconds() })},
		// Map growth depends on per-map hash seeds, so allocation counts
		// vary a little from rep to rep of one seed.
		{"scenario.setup_allocs", "count", overReps(reps, func(r *rep) float64 { return float64(r.setupAllocs) })},
		{"runtime.gc_cycles", "count", overReps(reps, func(r *rep) float64 { return float64(r.gcCycles) })},
		{"runtime.gc_cpu_share", "share", overReps(reps, func(r *rep) float64 {
			if r.gcCPU+r.userCPU == 0 {
				return 0
			}
			return r.gcCPU / (r.gcCPU + r.userCPU)
		})},
	}
	for i, m := range reps[0].counts {
		m.Value = acrossSeeds(reps, func(r *rep) float64 { return r.counts[i].Value })
		out = append(out, m)
	}
	return out
}

// tracedMetrics are the numbers only a traced run has: CPU shares from the
// run-phase profiles, span self times, and the tracing overhead measured
// against an untraced rep of the same seed.
func tracedMetrics(cpu *cpuShares, tr *tracer, overhead float64) []metric {
	var out []metric
	for _, l := range append(append([]string{}, cpuLayers...), "other", "runtime") {
		out = append(out, metric{l + ".cpu_share", "share", cpu.share(l)})
	}
	unattributed := 0.0
	if cpu.total > 0 {
		unattributed = float64(cpu.unattributed) / float64(cpu.total)
	}
	return append(out,
		metric{"runtime.unattributed_share", "share", unattributed},
		metric{"profile.samples", "count", float64(cpu.total)},
		metric{"trace.overhead_share", "share", overhead},
		metric{"checkpoint.snapshot_s", "s", tr.medianSelf("World.Snapshot")},
		metric{"checkpoint.encode_s", "s", tr.medianSelf("checkpoint.Encode")},
		metric{"checkpoint.decode_s", "s", tr.medianSelf("checkpoint.Decode")},
		metric{"checkpoint.restore_self_s", "s", tr.medianSelf("scenario.Restore")},
		metric{"ftdc.decode_s", "s", tr.medianSelf("ftdc.Decode")},
	)
}
