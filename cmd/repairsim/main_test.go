package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives repairsim's flag surface through the run seam: bad
// inputs must fail with a diagnosable error and write no results, and a
// small clean run must succeed.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "plain.ckpt")
	small := []string{"-alg", "dynamic", "-robots", "4", "-simtime", "300"}

	// A snapshot taken without the flight recorder armed, for the -ftdc
	// case below.
	var out, errOut bytes.Buffer
	if err := run(append(small, "-checkpoint", snap, "-checkpoint-every", "100"), &out, &errOut); err != nil {
		t.Fatalf("checkpointed run: %v (stderr %q)", err, errOut.String())
	}

	cases := []struct {
		name    string
		args    []string
		wantErr string // "" means the run must succeed
		wantOut string // a substring stdout must contain on success
	}{
		{"unknown algorithm", []string{"-alg", "nope"}, `unknown algorithm "nope"`, ""},
		{"malformed fault plan", []string{"-fault", "mgr@x"}, `entry "mgr@x"`, ""},
		{"NaN simtime", []string{"-simtime", "NaN"}, "not finite", ""},
		{"restore of a missing file", []string{"-restore", filepath.Join(dir, "missing.ckpt")}, "no such file", ""},
		{"ftdc on a non-recording snapshot", []string{"-restore", snap, "-ftdc", filepath.Join(dir, "run.ftdc")}, "not recording", ""},
		{"clean small run", small, "", "total travel:"},
		{"clean small run as JSON", append(small, "-json"), "", `"failuresInjected"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				if stdout.Len() != 0 {
					t.Fatalf("a failed run printed results: %q", stdout.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("run: %v (stderr %q)", err, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.wantOut) {
				t.Fatalf("stdout lacks %q:\n%s", tc.wantOut, stdout.String())
			}
			if tc.args[len(tc.args)-1] == "-json" && !json.Valid(stdout.Bytes()) {
				t.Fatalf("-json output does not parse:\n%s", stdout.String())
			}
		})
	}
}
