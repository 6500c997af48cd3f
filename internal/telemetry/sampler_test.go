package telemetry

import (
	"reflect"
	"strings"
	"testing"

	"roborepair/internal/metrics"
	"roborepair/internal/sim"
)

func TestSamplerCadenceAndBaseline(t *testing.T) {
	sched := sim.NewScheduler()
	c := NewCollector(Config{Enabled: true, SamplePeriodS: 100, RingCapacity: 16})
	ticks := 0.0
	c.Gauge("ticks", func() float64 { ticks++; return ticks })
	c.Gauge("clock", func() float64 { return float64(sched.Now()) })
	if err := c.Start(sched); err != nil {
		t.Fatal(err)
	}
	sched.Run(450)
	// Baseline sample at t=0 plus one per 100 s: 0,100,200,300,400.
	if got := c.Times(); !reflect.DeepEqual(got, []float64{0, 100, 200, 300, 400}) {
		t.Fatalf("sample times = %v", got)
	}
	if got := c.Series("clock"); !reflect.DeepEqual(got, []float64{0, 100, 200, 300, 400}) {
		t.Fatalf("clock series = %v", got)
	}
	if v, ok := c.Last("ticks"); !ok || v != 5 {
		t.Fatalf("last ticks = %v,%v", v, ok)
	}
	if c.Len() != 5 || c.Dropped() != 0 {
		t.Fatalf("len/dropped = %d/%d, want 5/0", c.Len(), c.Dropped())
	}
}

func TestSamplerRingEviction(t *testing.T) {
	sched := sim.NewScheduler()
	c := NewCollector(Config{Enabled: true, SamplePeriodS: 10, RingCapacity: 4})
	c.Gauge("clock", func() float64 { return float64(sched.Now()) })
	if err := c.Start(sched); err != nil {
		t.Fatal(err)
	}
	sched.Run(75) // samples at 0,10,...,70 → 8 rows, ring keeps last 4
	if c.Len() != 4 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Dropped() != 4 {
		t.Fatalf("dropped = %d", c.Dropped())
	}
	if got := c.Times(); !reflect.DeepEqual(got, []float64{40, 50, 60, 70}) {
		t.Fatalf("times after eviction = %v", got)
	}
	if got := c.MaxOf("clock"); got != 70 {
		t.Fatalf("MaxOf = %v", got)
	}
}

func TestSamplerUnknownGauge(t *testing.T) {
	c := NewCollector(Config{Enabled: true})
	if s := c.Series("nope"); s != nil {
		t.Fatalf("unknown series = %v", s)
	}
	if _, ok := c.Last("nope"); ok {
		t.Fatal("unknown gauge reported a value")
	}
}

func TestCollectorSummary(t *testing.T) {
	c := NewCollector(Config{Enabled: true})
	reg := metrics.NewRegistry()
	reg.DoublingHistogram("repair_delay_s", 8, 16).Add(42)
	s := c.Summary(reg)
	if !strings.Contains(s, "repair_delay_s") || !strings.Contains(s, "timeseries_samples") {
		t.Fatalf("summary missing sections:\n%s", s)
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	var zero Config
	if zero.WithDefaults() != zero {
		t.Fatal("zero config must stay zero (disabled)")
	}
	d := Config{Enabled: true}.WithDefaults()
	if d.SamplePeriodS != 250 || d.RingCapacity != 4096 {
		t.Fatalf("defaults = %+v", d)
	}
	if err := (Config{SamplePeriodS: -1}).Validate(); err == nil {
		t.Fatal("negative period validated")
	}
	if err := (Config{RingCapacity: -1}).Validate(); err == nil {
		t.Fatal("negative capacity validated")
	}
}
