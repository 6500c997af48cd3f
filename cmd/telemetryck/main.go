// Command telemetryck validates exported telemetry artifacts, for smoke
// tests and CI: a Chrome trace_event JSON must parse and carry well-formed
// events, a Prometheus text file must scrape (every line a comment or a
// `name[{labels}] value` sample), and a time-series CSV must be
// rectangular with a t_s column. The format checks themselves live in
// internal/analysis, shared with invck.
//
// Usage:
//
//	telemetryck -chrome trace.json -prom metrics.txt -csv series.csv
//
// Any failed check prints a diagnostic and exits nonzero; missing flags
// skip their check. A Prometheus file reporting nonzero
// roborepair_telemetry_dropped_rows_total (gauge samples lost to ring
// eviction) prints a truncation warning to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"roborepair/internal/analysis"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "telemetryck:", err)
		os.Exit(1)
	}
}

// run validates the files named in args, reporting each passed check on
// stdout and warnings on stderr; a failed check is the returned error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("telemetryck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chrome := ""
	prom := ""
	csv := ""
	fs.StringVar(&chrome, "chrome", "", "Chrome trace_event JSON file to validate")
	fs.StringVar(&prom, "prom", "", "Prometheus text exposition file to validate")
	fs.StringVar(&csv, "csv", "", "time-series CSV file to validate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if chrome == "" && prom == "" && csv == "" {
		return fmt.Errorf("nothing to check; pass -chrome, -prom, and/or -csv")
	}
	checks := []struct {
		path  string
		check func(io.Reader) error
	}{
		{chrome, analysis.CheckChromeTrace},
		{prom, analysis.CheckPrometheus},
		{csv, func(r io.Reader) error { return analysis.CheckCSV(r, "t_s") }},
	}
	for _, c := range checks {
		if c.path == "" {
			continue
		}
		if err := checkFile(c.path, c.check); err != nil {
			return fmt.Errorf("%s: %w", c.path, err)
		}
		fmt.Fprintf(stdout, "%s: ok\n", c.path)
	}
	if prom != "" {
		if n, err := promDroppedRows(prom); err != nil {
			return fmt.Errorf("%s: %w", prom, err)
		} else if n > 0 {
			fmt.Fprintf(stderr, "telemetryck: warning: %s reports %d telemetry samples lost to "+
				"ring eviction; the retained time-series window is truncated\n", prom, n)
		}
	}
	return nil
}

// promDroppedRows extracts the sampler's ring-eviction counter from a
// Prometheus text file, 0 when the series is absent (registry-only
// exports have no sampler).
func promDroppedRows(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	const series = "roborepair_telemetry_dropped_rows_total "
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, series); ok {
			return strconv.Atoi(strings.TrimSpace(rest))
		}
	}
	return 0, nil
}

func checkFile(path string, check func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return check(f)
}
