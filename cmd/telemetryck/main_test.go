package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roborepair"
	"roborepair/internal/telemetry"
)

// exportRun runs a short telemetered simulation and writes its Prometheus,
// CSV and Chrome trace exports into dir, as repairsim's -prom,
// -timeseries and -chrome-trace flags do.
func exportRun(t *testing.T, dir string) (prom, csv, chrome string) {
	t.Helper()
	cfg := roborepair.DefaultConfig()
	cfg.Algorithm = roborepair.Centralized
	cfg.SimTime = 1000
	cfg.Telemetry.Enabled = true
	cfg.TraceCapacity = -1
	w, err := roborepair.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	write := func(name string, render func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := render(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	prom = write("metrics.txt", func(f *os.File) error {
		return telemetry.WritePrometheus(f, res.Registry, res.Telemetry)
	})
	csv = write("series.csv", func(f *os.File) error { return res.Telemetry.WriteCSV(f) })
	chrome = write("trace.json", func(f *os.File) error {
		return telemetry.WriteChromeTrace(f, w.Trace, telemetry.ChromeOptions{
			Collector: res.Telemetry, ManagerID: w.Manager.ID(),
		})
	})
	return prom, csv, chrome
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	prom, csv, chrome := exportRun(t, dir)
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("# TYPE roborepair_x gauge\nroborepair_x{unclosed 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dropped := filepath.Join(dir, "dropped.txt")
	if err := os.WriteFile(dropped, []byte("roborepair_telemetry_dropped_rows_total 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = success
		stdout  []string
		stderr  string // substring expected on stderr; "" = stderr empty
	}{
		{name: "no flags", wantErr: "nothing to check"},
		{name: "unknown flag", args: []string{"-bogus"}, wantErr: "bogus", stderr: "bogus"},
		{
			name:   "telemetered run",
			args:   []string{"-prom", prom, "-csv", csv, "-chrome", chrome},
			stdout: []string{prom + ": ok", csv + ": ok", chrome + ": ok"},
		},
		{name: "malformed prometheus", args: []string{"-prom", bad}, wantErr: bad},
		{name: "missing file", args: []string{"-csv", filepath.Join(dir, "nope.csv")}, wantErr: "nope.csv"},
		{
			name:   "dropped rows",
			args:   []string{"-prom", dropped},
			stdout: []string{dropped + ": ok"},
			stderr: "warning: " + dropped + " reports 3 telemetry samples lost",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			err := run(c.args, &stdout, &stderr)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("error = %v, want one containing %q", err, c.wantErr)
			}
			for _, want := range c.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, stdout.String())
				}
			}
			if c.stderr == "" && stderr.Len() > 0 {
				t.Errorf("unexpected stderr:\n%s", stderr.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr missing %q:\n%s", c.stderr, stderr.String())
			}
		})
	}
}
