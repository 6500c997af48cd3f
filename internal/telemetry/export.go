package telemetry

import (
	"fmt"
	"io"
	"strings"

	"roborepair/internal/metrics"
)

// promName sanitizes a metric name into the Prometheus charset
// [a-zA-Z0-9_] and prefixes the simulator namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("roborepair_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float in Prometheus exposition syntax.
func promFloat(v float64) string { return fmt.Sprintf("%g", v) }

// WritePrometheus renders one run's full accounting — the metrics
// registry's transmission counters, sample series, and histograms, plus
// the collector's sample count and latest gauge readings — in the
// Prometheus text exposition format. Either reg or c may be nil. Output
// order is fixed (sorted registry names, registration-ordered gauges), so
// the text is deterministic for a deterministic run.
func WritePrometheus(w io.Writer, reg *metrics.Registry, c *Collector) error {
	bw := &errWriter{w: w}
	if reg != nil {
		bw.printf("# TYPE roborepair_tx_total counter\n")
		for _, cat := range reg.Categories() {
			bw.printf("roborepair_tx_total{category=%q} %d\n", cat, reg.Tx(cat))
		}
		for _, s := range reg.SeriesNames() {
			acc := reg.Series(s)
			name := promName(s)
			bw.printf("# TYPE %s summary\n", name)
			bw.printf("%s_count %d\n", name, acc.N())
			bw.printf("%s_sum %s\n", name, promFloat(acc.Sum()))
			bw.printf("%s{quantile=\"0\"} %s\n", name, promFloat(acc.Min()))
			bw.printf("%s{quantile=\"1\"} %s\n", name, promFloat(acc.Max()))
		}
		for _, hn := range reg.HistNames() {
			h := reg.Hist(hn)
			name := promName(hn)
			bw.printf("# TYPE %s histogram\n", name)
			var cum uint64
			for i := 0; i < h.Buckets(); i++ {
				cum += h.Count(i)
				bw.printf("%s_bucket{le=%q} %d\n", name, promFloat(h.UpperBound(i)), cum)
			}
			cum += h.Overflow()
			bw.printf("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			bw.printf("%s_sum %s\n", name, promFloat(h.Sum()))
			bw.printf("%s_count %d\n", name, h.N())
		}
	}
	if c != nil {
		// Every sampling tick, whether its row is still retained or not.
		bw.printf("# TYPE roborepair_telemetry_samples_total counter\n")
		bw.printf("roborepair_telemetry_samples_total %d\n", c.n+c.drops)
		for _, gn := range c.names {
			if v, ok := c.Last(gn); ok {
				name := promName(gn)
				bw.printf("# TYPE %s gauge\n", name)
				bw.printf("%s %s\n", name, promFloat(v))
			}
		}
		// Ring-eviction losses: nonzero means the retained time-series
		// window is truncated (telemetryck warns on it).
		bw.printf("# TYPE roborepair_telemetry_dropped_rows_total counter\n")
		bw.printf("roborepair_telemetry_dropped_rows_total %d\n", c.drops)
	}
	return bw.err
}

// WriteTimeSeriesCSV renders the collector's retained window as CSV: a
// header line `t_s,<gauge>,...` then one row per sample. The prefix
// columns (e.g. run-identifying fields in a sweep grid) are prepended
// verbatim to the header and every row.
func WriteTimeSeriesCSV(w io.Writer, c *Collector, prefixHeader string, prefixRow string) error {
	if err := WriteTimeSeriesHeader(w, c, prefixHeader); err != nil {
		return err
	}
	return WriteTimeSeriesRows(w, c, prefixRow)
}

// WriteTimeSeriesHeader renders just the CSV header line. Grid callers use
// it once, then WriteTimeSeriesRows per run, to share one header across
// many runs' series.
func WriteTimeSeriesHeader(w io.Writer, c *Collector, prefixHeader string) error {
	bw := &errWriter{w: w}
	bw.printf("%st_s", prefixHeader)
	for _, n := range c.names {
		bw.printf(",%s", n)
	}
	bw.printf("\n")
	return bw.err
}

// WriteTimeSeriesRows renders the sample rows without a header.
func WriteTimeSeriesRows(w io.Writer, c *Collector, prefixRow string) error {
	bw := &errWriter{w: w}
	c.Each(func(t float64, vals []float64) {
		bw.printf("%s%g", prefixRow, t)
		for _, v := range vals {
			bw.printf(",%g", v)
		}
		bw.printf("\n")
	})
	return bw.err
}

// WriteCSV renders the collector's time series with no prefix columns.
func (c *Collector) WriteCSV(w io.Writer) error {
	return WriteTimeSeriesCSV(w, c, "", "")
}

// errWriter folds per-line write errors into one sticky error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
