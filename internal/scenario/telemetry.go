package scenario

import (
	"roborepair/internal/radio"
	"roborepair/internal/telemetry"
)

// Telemetry histogram names, registered in the run's metrics registry
// only when telemetry is on. Chosen to not collide with the registry's
// other Prometheus-exported series and histogram names.
const (
	// TelHistRepairDelay buckets failure→replacement latency (sim seconds).
	TelHistRepairDelay = "repair_delay_seconds"
	// TelHistReportHops buckets the hop count of delivered failure reports.
	TelHistReportHops = "report_delivery_hops"
	// TelHistReportRetx buckets the retransmission attempt index of each
	// resent failure report (reliability extension).
	TelHistReportRetx = "report_retx_attempt"
	// TelHistTripMeters buckets the per-repair robot trip distance.
	TelHistTripMeters = "robot_trip_meters"
	// TelHistDecodeFail buckets the sim time (seconds) of each frame the
	// hostile channel's defensive decoder dropped, so corruption windows
	// show up as mass in the matching buckets. Registered only when the
	// fault plan has corruption windows.
	TelHistDecodeFail = "decode_failures"
)

// Telemetry gauge (time-series column) names, in sampling order.
const (
	// GaugePendingFailures is the repair backlog: sensors killed so far
	// minus replacements deployed.
	GaugePendingFailures = "pending_failures"
	// GaugeRobotQueueDepth is the total work queued on robots, counting an
	// in-service task as one.
	GaugeRobotQueueDepth = "robot_queue_depth"
	// GaugeInflightReports is the number of failure reports awaiting an ack
	// across all sensors (0 unless the reliability extension is on).
	GaugeInflightReports = "inflight_reports"
	// GaugeEventQueueDepth is the simulation kernel's pending event count.
	GaugeEventQueueDepth = "event_queue_depth"
	// GaugeEventsPerSimSec is the kernel event rate over the last sample
	// period (events fired per sim second).
	GaugeEventsPerSimSec = "events_per_simsec"
	// GaugeFleetAlive is the number of operational robots (battery layer;
	// registered only when Config.Battery is set).
	GaugeFleetAlive = "fleet_alive"
	// GaugeBatteryMinJ is the lowest pack level across live robots in whole
	// joules (battery layer; registered only when Config.Battery is set).
	GaugeBatteryMinJ = "battery_min_j"
)

// startTelemetry registers the standard histograms in the run's registry,
// builds the collector, registers the gauges, and arms the sampler. Called
// from New only when Config.Telemetry.Enabled — with telemetry off the
// histograms do not exist, World.Telemetry stays nil, and every hook feed
// is an Add on a nil histogram, which does nothing.
func (w *World) startTelemetry() error {
	c := telemetry.NewCollector(w.Cfg.Telemetry)
	w.Telemetry = c

	// Histograms fed by the lifecycle hooks in New. First-bucket bounds and
	// counts size each to the quantity's plausible range: repair delay
	// 0..8 s through km-scale backlogs, hops and retx small integers, trips
	// a few meters through field diagonals.
	reg := w.Registry
	w.telRepairDelay = reg.DoublingHistogram(TelHistRepairDelay, 8, 16)
	w.telReportHops = reg.DoublingHistogram(TelHistReportHops, 1, 8)
	w.telReportRetx = reg.DoublingHistogram(TelHistReportRetx, 1, 8)
	w.telTrip = reg.DoublingHistogram(TelHistTripMeters, 4, 16)
	if w.hostile {
		// Doubling buckets over sim time: 0..64 s in the first, the paper's
		// full 64000 s horizon inside the last.
		decode := reg.DoublingHistogram(TelHistDecodeFail, 64, 12)
		w.Medium.SetChannelDropHook(func(radio.Frame) {
			decode.Add(float64(w.Sched.Now()))
		})
	}

	// Gauges read only deterministic simulation state, so sampled series
	// are identical whatever the surrounding experiment's worker count.
	// The bodies are shared with the flight recorder (see ftdc.go).
	c.Gauge(GaugePendingFailures, w.gaugePendingFailures)
	c.Gauge(GaugeRobotQueueDepth, w.gaugeRobotQueueDepth)
	c.Gauge(GaugeInflightReports, w.gaugeInflightReports)
	c.Gauge(GaugeEventQueueDepth, w.gaugeEventQueueDepth)
	var lastFired uint64
	c.Gauge(GaugeEventsPerSimSec, func() float64 {
		fired := w.Sched.Fired()
		rate := float64(fired-lastFired) / c.Config().SamplePeriodS
		lastFired = fired
		return rate
	})
	if w.Cfg.Battery != nil {
		// Appended after the stable columns so battery-off CSV layouts are
		// untouched.
		c.Gauge(GaugeFleetAlive, w.gaugeFleetAlive)
		c.Gauge(GaugeBatteryMinJ, w.gaugeBatteryMinJ)
	}

	return c.Start(w.Sched)
}
