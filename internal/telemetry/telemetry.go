// Package telemetry is the simulator's observability layer: a sim-time
// gauge sampler with ring buffers, and exporters (Prometheus text, CSV
// time-series, Chrome trace_event JSON). The layer's latency histograms
// live in the run's metrics.Registry.
//
// The layer is opt-in and near-zero-overhead: the zero Config disables
// everything, no Collector is built, and the instrumented hot paths reduce
// to a nil check — runs with telemetry off reproduce the untelemetered
// simulator's behavior and allocation counts bit-for-bit. All sampling is
// driven by the virtual clock and reads only deterministic simulation
// state, so telemetry output for a fixed (Config, Seed) is byte-identical
// whatever the worker count of the surrounding experiment grid.
package telemetry

import (
	"fmt"
	"math"

	"roborepair/internal/metrics"
	"roborepair/internal/sim"
)

// Config parameterizes the telemetry layer of one run. The zero value
// disables telemetry entirely.
type Config struct {
	// Enabled switches the whole layer on.
	Enabled bool `json:"enabled,omitempty"`
	// SamplePeriodS is the sim-time gauge sampling cadence in seconds
	// (default 250 when Enabled).
	SamplePeriodS float64 `json:"samplePeriodS,omitempty"`
	// RingCapacity bounds the retained time-series samples per gauge
	// (FIFO eviction; default 4096 when Enabled — enough for a 64000 s
	// run at the default cadence with a wide margin).
	RingCapacity int `json:"ringCapacity,omitempty"`
}

// WithDefaults fills unset knobs with the documented defaults.
func (c Config) WithDefaults() Config {
	if !c.Enabled {
		return c
	}
	if c.SamplePeriodS <= 0 {
		c.SamplePeriodS = 250
	}
	if c.RingCapacity <= 0 {
		c.RingCapacity = 4096
	}
	return c
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if !(c.SamplePeriodS >= 0) || math.IsInf(c.SamplePeriodS, 0) { // also rejects NaN
		return fmt.Errorf("telemetry: sample period %v not a finite non-negative value", c.SamplePeriodS)
	}
	if c.RingCapacity < 0 {
		return fmt.Errorf("telemetry: ring capacity %d negative", c.RingCapacity)
	}
	return nil
}

// Collector owns one run's sampled time series: a set of registered
// gauges snapshotted on a fixed sim-time cadence into pre-allocated ring
// buffers (one per gauge plus the timestamp column). When the ring fills,
// the oldest rows are evicted, keeping the most recent window.
// Steady-state sampling allocates nothing. The run's histograms live in
// its metrics.Registry. A Collector is not safe for concurrent use (the
// simulation is single-threaded); distinct runs own distinct Collectors.
type Collector struct {
	cfg Config

	names []string
	fns   []func() float64

	times []float64   // ring: sample timestamps (sim seconds)
	cols  [][]float64 // ring per gauge, parallel to times
	start int         // index of the oldest retained row
	n     int         // retained rows
	drops int         // evicted rows
}

// NewCollector builds a collector for an enabled configuration.
func NewCollector(cfg Config) *Collector {
	return &Collector{cfg: cfg.WithDefaults()}
}

// Config reports the collector's effective (defaulted) configuration.
func (c *Collector) Config() Config { return c.cfg }

// Gauge registers a named gauge; fn is called at every sampling tick and
// must read only deterministic simulation state. Register all gauges
// before Start.
func (c *Collector) Gauge(name string, fn func() float64) {
	c.names = append(c.names, name)
	c.fns = append(c.fns, fn)
}

// Start sizes the rings and arms the sampling ticker on the scheduler: one
// snapshot of every gauge at the current virtual time (the baseline row)
// and one every SamplePeriodS thereafter.
func (c *Collector) Start(sched *sim.Scheduler) error {
	c.times = make([]float64, c.cfg.RingCapacity)
	c.cols = make([][]float64, len(c.fns))
	for i := range c.cols {
		c.cols[i] = make([]float64, c.cfg.RingCapacity)
	}
	_, err := sched.NewTicker(0, sim.Duration(c.cfg.SamplePeriodS), func() { c.snapshot(sched.Now()) })
	return err
}

// snapshot appends one row of gauge readings at timestamp now.
func (c *Collector) snapshot(now sim.Time) {
	idx := (c.start + c.n) % len(c.times)
	if c.n == len(c.times) {
		c.start = (c.start + 1) % len(c.times)
		c.drops++
	} else {
		c.n++
	}
	c.times[idx] = float64(now)
	for i, fn := range c.fns {
		c.cols[i][idx] = fn()
	}
}

// Len reports the retained row count.
func (c *Collector) Len() int { return c.n }

// Dropped reports how many rows the ring evicted.
func (c *Collector) Dropped() int { return c.drops }

// Names lists the gauge column names in registration order.
func (c *Collector) Names() []string { return append([]string(nil), c.names...) }

// row maps the i-th retained row (0 = oldest) to its ring index.
func (c *Collector) row(i int) int { return (c.start + i) % len(c.times) }

// Each calls fn for every retained row in chronological order with the
// sample timestamp and one value per gauge. The vals slice is reused
// across calls; copy it to retain.
func (c *Collector) Each(fn func(t float64, vals []float64)) {
	vals := make([]float64, len(c.cols))
	for i := 0; i < c.n; i++ {
		idx := c.row(i)
		for j := range c.cols {
			vals[j] = c.cols[j][idx]
		}
		fn(c.times[idx], vals)
	}
}

// Last reports the most recent value of the named gauge, or ok=false when
// the gauge is unknown or nothing was sampled yet.
func (c *Collector) Last(name string) (float64, bool) {
	if c.n == 0 {
		return 0, false
	}
	for i, n := range c.names {
		if n == name {
			return c.cols[i][c.row(c.n-1)], true
		}
	}
	return 0, false
}

// Series returns a copy of the named gauge's retained values in
// chronological order, or nil when the gauge is unknown.
func (c *Collector) Series(name string) []float64 {
	for i, n := range c.names {
		if n != name {
			continue
		}
		out := make([]float64, c.n)
		for j := range out {
			out[j] = c.cols[i][c.row(j)]
		}
		return out
	}
	return nil
}

// Times returns a copy of the retained sample timestamps.
func (c *Collector) Times() []float64 {
	out := make([]float64, c.n)
	for j := range out {
		out[j] = c.times[c.row(j)]
	}
	return out
}

// MaxOf reports the maximum retained value of the named gauge (0 when
// empty or unknown).
func (c *Collector) MaxOf(name string) float64 {
	var max float64
	for _, v := range c.Series(name) {
		if v > max {
			max = v
		}
	}
	return max
}

// Summary renders a compact human-readable digest: the registry's
// histograms (sorted by name), then the time-series sample count.
func (c *Collector) Summary(reg *metrics.Registry) string {
	out := ""
	for _, name := range reg.HistNames() {
		out += fmt.Sprintf("%-24s %s\n", name, reg.Hist(name))
	}
	out += fmt.Sprintf("%-24s n=%d (period %gs, %d gauges)\n",
		"timeseries_samples", c.n, c.cfg.SamplePeriodS, len(c.names))
	return out
}
