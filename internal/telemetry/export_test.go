package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"

	"roborepair/internal/metrics"
	"roborepair/internal/sim"
)

// promLine matches one Prometheus exposition sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

func scrapeCheck(t *testing.T, text string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty exposition")
	}
	for _, ln := range lines {
		if strings.HasPrefix(ln, "#") {
			continue
		}
		if !promLine.MatchString(ln) {
			t.Fatalf("unscrapeable line: %q", ln)
		}
	}
}

func buildCollector(t *testing.T) *Collector {
	t.Helper()
	sched := sim.NewScheduler()
	c := NewCollector(Config{Enabled: true, SamplePeriodS: 50, RingCapacity: 64})
	depth := 0.0
	c.Gauge("queue_depth", func() float64 { depth += 2; return depth })
	if err := c.Start(sched); err != nil {
		t.Fatal(err)
	}
	sched.Run(160)
	return c
}

func TestWritePrometheus(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.CountTx(metrics.CatBeacon, 123)
	reg.Observe(metrics.SeriesReportHops, 2)
	reg.Observe(metrics.SeriesReportHops, 4)
	reg.Histogram("repair_delay_hist", 30, 8).Add(45)
	h := reg.DoublingHistogram("repair_delay_s", 8, 12)
	for _, v := range []float64{5, 30, 200, 9000} {
		h.Add(v)
	}

	c := buildCollector(t)
	var b bytes.Buffer
	if err := WritePrometheus(&b, reg, c); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	scrapeCheck(t, text)

	for _, want := range []string{
		`roborepair_tx_total{category="beacon"} 123`,
		"roborepair_report_hops_count 2",
		"roborepair_report_hops_sum 6",
		`roborepair_repair_delay_hist_bucket{le="+Inf"} 1`,
		"roborepair_telemetry_samples_total 4",
		`roborepair_repair_delay_s_bucket{le="8"} 1`,
		"roborepair_repair_delay_s_count 4",
		"# TYPE roborepair_queue_depth gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// Histogram bucket counts must be cumulative.
	if !strings.Contains(text, `roborepair_repair_delay_s_bucket{le="256"} 3`) {
		t.Errorf("cumulative buckets wrong:\n%s", text)
	}

	// nil registry and nil collector are both fine.
	if err := WritePrometheus(&bytes.Buffer{}, nil, c); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&bytes.Buffer{}, reg, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteTimeSeriesCSV(t *testing.T) {
	c := buildCollector(t)
	var b bytes.Buffer
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if lines[0] != "t_s,queue_depth" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 1+c.Len() {
		t.Fatalf("rows = %d, want %d", len(lines)-1, c.Len())
	}
	if lines[1] != "0,2" {
		t.Fatalf("baseline row = %q", lines[1])
	}

	// Prefixed variant (the sweep grid format).
	b.Reset()
	if err := WriteTimeSeriesCSV(&b, c, "alg,seed,", "dynamic,3,"); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(b.String(), "\n")
	if lines[0] != "alg,seed,t_s,queue_depth" {
		t.Fatalf("prefixed header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "dynamic,3,0,") {
		t.Fatalf("prefixed row = %q", lines[1])
	}
}

// failAfter accepts budget bytes, then short-writes with an error — the
// adversarial sink for exporter error-path coverage.
type failAfter struct {
	budget int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.budget {
		f.budget -= len(p)
		return len(p), nil
	}
	n := f.budget
	f.budget = 0
	return n, errors.New("sink full")
}

// TestExportersPropagateWriteErrors: a failing writer must surface as the
// exporter's returned error wherever mid-stream the failure lands — the
// sticky errWriter must not swallow short writes.
func TestExportersPropagateWriteErrors(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.CountTx(metrics.CatBeacon, 123)
	c := buildCollector(t)
	exporters := map[string]func(io.Writer) error{
		"WritePrometheus":     func(w io.Writer) error { return WritePrometheus(w, reg, c) },
		"WriteCSV":            c.WriteCSV,
		"WriteTimeSeriesRows": func(w io.Writer) error { return WriteTimeSeriesRows(w, c, "") },
		"WriteTimeSeriesHdr":  func(w io.Writer) error { return WriteTimeSeriesHeader(w, c, "") },
	}
	for name, render := range exporters {
		var full bytes.Buffer
		if err := render(&full); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Fail at the start, one byte in, mid-stream, and one byte short.
		for _, budget := range []int{0, 1, full.Len() / 2, full.Len() - 1} {
			if err := render(&failAfter{budget: budget}); err == nil {
				t.Fatalf("%s(budget=%d of %d): error lost", name, budget, full.Len())
			}
		}
		// A sink exactly large enough succeeds: the budgets above really
		// were mid-stream failures, not size mismatches.
		if err := render(&failAfter{budget: full.Len()}); err != nil {
			t.Fatalf("%s exact-budget sink failed: %v", name, err)
		}
	}
}

// TestWriteTimeSeriesCSVZeroSamples: a collector that never sampled still
// emits a well-formed header-only CSV.
func TestWriteTimeSeriesCSVZeroSamples(t *testing.T) {
	c := NewCollector(Config{Enabled: true})
	c.Gauge("queue_depth", func() float64 { return 1 })
	var b bytes.Buffer
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "t_s,queue_depth\n" {
		t.Fatalf("zero-sample CSV = %q", b.String())
	}
}

// TestWriteTimeSeriesCSVSingleSample: only the t=0 baseline sample.
func TestWriteTimeSeriesCSVSingleSample(t *testing.T) {
	sched := sim.NewScheduler()
	c := NewCollector(Config{Enabled: true, SamplePeriodS: 50})
	c.Gauge("queue_depth", func() float64 { return 3 })
	if err := c.Start(sched); err != nil {
		t.Fatal(err)
	}
	sched.Run(10) // before the first post-baseline tick
	var b bytes.Buffer
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "t_s,queue_depth\n0,3\n" {
		t.Fatalf("single-sample CSV = %q", b.String())
	}
}

// TestPrometheusDroppedRowsCounter: the exposition reports ring-eviction
// losses so scrapers (and telemetryck) can detect truncated series.
func TestPrometheusDroppedRowsCounter(t *testing.T) {
	sched := sim.NewScheduler()
	c := NewCollector(Config{Enabled: true, SamplePeriodS: 50, RingCapacity: 4})
	c.Gauge("queue_depth", func() float64 { return 1 })
	if err := c.Start(sched); err != nil {
		t.Fatal(err)
	}
	sched.Run(1000) // 21 samples into a 4-slot ring
	var b bytes.Buffer
	if err := WritePrometheus(&b, nil, c); err != nil {
		t.Fatal(err)
	}
	scrapeCheck(t, b.String())
	want := fmt.Sprintf("roborepair_telemetry_dropped_rows_total %d", c.Dropped())
	if c.Dropped() == 0 || !strings.Contains(b.String(), want) {
		t.Fatalf("exposition missing %q (dropped=%d):\n%s", want, c.Dropped(), b.String())
	}
	// The sample counter covers every tick, retained or evicted.
	if want := "roborepair_telemetry_samples_total 21"; !strings.Contains(b.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, b.String())
	}
}
