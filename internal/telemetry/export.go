package telemetry

import (
	"fmt"
	"io"

	"roborepair/internal/metrics"
)

// promFloat renders a float in Prometheus exposition syntax.
func promFloat(v float64) string { return fmt.Sprintf("%g", v) }

// WritePrometheus renders one run's full accounting — the metrics
// registry's transmission counters, sample series, and histograms, plus
// the collector's sample count and latest gauge readings — in the
// Prometheus text exposition format. Either reg or c may be nil. Output
// order is fixed (sorted registry names, registration-ordered gauges), so
// the text is deterministic for a deterministic run.
func WritePrometheus(w io.Writer, reg *metrics.Registry, c *Collector) error {
	bw := &metrics.ErrWriter{W: w}
	if reg != nil {
		bw.Printf("# TYPE roborepair_tx_total counter\n")
		for _, cat := range reg.Categories() {
			bw.Printf("roborepair_tx_total{category=%q} %d\n", cat, reg.Tx(cat))
		}
		for _, s := range reg.SeriesNames() {
			acc := reg.Series(s)
			name := metrics.PromName(s)
			bw.Printf("# TYPE %s summary\n", name)
			bw.Printf("%s_count %d\n", name, acc.N())
			bw.Printf("%s_sum %s\n", name, promFloat(acc.Sum()))
			bw.Printf("%s{quantile=\"0\"} %s\n", name, promFloat(acc.Min()))
			bw.Printf("%s{quantile=\"1\"} %s\n", name, promFloat(acc.Max()))
		}
		for _, hn := range reg.HistNames() {
			h := reg.Hist(hn)
			name := metrics.PromName(hn)
			bw.Printf("# TYPE %s histogram\n", name)
			var cum uint64
			for i := 0; i < h.Buckets(); i++ {
				cum += h.Count(i)
				bw.Printf("%s_bucket{le=%q} %d\n", name, promFloat(h.UpperBound(i)), cum)
			}
			cum += h.Overflow()
			bw.Printf("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			bw.Printf("%s_sum %s\n", name, promFloat(h.Sum()))
			bw.Printf("%s_count %d\n", name, h.N())
		}
	}
	if c != nil {
		// Every sampling tick, whether its row is still retained or not.
		bw.Printf("# TYPE roborepair_telemetry_samples_total counter\n")
		bw.Printf("roborepair_telemetry_samples_total %d\n", c.n+c.drops)
		for _, gn := range c.names {
			if v, ok := c.Last(gn); ok {
				name := metrics.PromName(gn)
				bw.Printf("# TYPE %s gauge\n", name)
				bw.Printf("%s %s\n", name, promFloat(v))
			}
		}
		// Ring-eviction losses: nonzero means the retained time-series
		// window is truncated (telemetryck warns on it).
		bw.Printf("# TYPE roborepair_telemetry_dropped_rows_total counter\n")
		bw.Printf("roborepair_telemetry_dropped_rows_total %d\n", c.drops)
	}
	return bw.Err
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
	bw := &metrics.ErrWriter{W: w}
	bw.Printf("%st_s", prefixHeader)
	for _, n := range c.names {
		bw.Printf(",%s", n)
	}
	bw.Printf("\n")
	return bw.Err
}

// WriteTimeSeriesRows renders the sample rows without a header.
func WriteTimeSeriesRows(w io.Writer, c *Collector, prefixRow string) error {
	bw := &metrics.ErrWriter{W: w}
	c.Each(func(t float64, vals []float64) {
		bw.Printf("%s%g", prefixRow, t)
		for _, v := range vals {
			bw.Printf(",%g", v)
		}
		bw.Printf("\n")
	})
	return bw.Err
}

// WriteCSV renders the collector's time series with no prefix columns.
func (c *Collector) WriteCSV(w io.Writer) error {
	return WriteTimeSeriesCSV(w, c, "", "")
}
