package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON is the part of the repository's BENCHMARK.json these
// tests hold the benchmark to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestWorkloadIsPureFunctionOfNameAndSeed(t *testing.T) {
	for _, name := range workloadNames {
		for _, seed := range []int64{1, 2, 99} {
			a, err := NewWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s seed %d: two calls built different workloads", name, seed)
			}
			other, _ := NewWorkload(name, seed+1)
			for _, s := range other.Seeds {
				if slices.Contains(a.Seeds, s) {
					t.Errorf("%s: benchmark seeds %d and %d share simulation seed %d", name, seed, seed+1, s)
				}
			}
			other.Seed, other.Seeds = a.Seed, a.Seeds
			if !reflect.DeepEqual(a, other) {
				t.Errorf("%s: the seed changed more than the simulation seeds", name)
			}
		}
	}
	if _, err := NewWorkload("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// fakeReps stands in for measured reps where only metric names matter.
func fakeReps(t *testing.T) []*rep {
	t.Helper()
	wl, err := NewWorkload("paper16", 3)
	if err != nil {
		t.Fatal(err)
	}
	wl.Cfg.SimTime = 50
	r, err := runRep(wl, 0, nil, false, &checker{log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	return []*rep{r}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	reps := fakeReps(t)
	wl, _ := NewWorkload("paper16", 3)
	check := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		seen := map[string]bool{}
		var names []string
		for _, m := range got {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s metric %q unit %q: bad name or unit", kind, m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("%s metric %q reported twice", kind, m.Name)
			}
			seen[m.Name] = true
			names = append(names, m.Name+" "+m.Unit)
		}
		var declared []string
		for _, m := range want {
			declared = append(declared, m.Name+" "+m.Unit)
		}
		sort.Strings(names)
		sort.Strings(declared)
		if !reflect.DeepEqual(names, declared) {
			t.Errorf("%s metrics reported %v, BENCHMARK.json declares %v", kind, names, declared)
		}
	}
	check("end_to_end", endToEnd(wl, reps), bj.EndToEnd)
	check("per_layer", append(layerCounts(wl, reps), tracedMetrics(&cpuShares{}, newTracer(), 0)...), bj.PerLayer)

	for _, w := range bj.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q, benchmark has %v", w.Name, workloadNames)
		}
	}
}

// TestShortHorizonSmoke runs every workload over a short horizon with
// tracing and profiling on; its output checks must all pass.
func TestShortHorizonSmoke(t *testing.T) {
	horizons := map[string]float64{"paper16": 200, "megafield20k": 10, "fullstack16": 200}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wl, err := NewWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			wl.Cfg.SimTime = horizons[name]
			var log bytes.Buffer
			chk := &checker{log: &log}
			tr := newTracer()
			r, err := runRep(wl, 0, tr, true, chk)
			if err != nil {
				t.Fatal(err)
			}
			if chk.failed != 0 || chk.attempted == 0 {
				t.Fatalf("%d of %d operations failed:\n%s", chk.failed, chk.attempted, log.String())
			}
			if r.events == 0 || r.restore <= 0 || len(r.profiles) != 2 {
				t.Errorf("events %d, restore %v, %d profiles", r.events, r.restore, len(r.profiles))
			}
			cpu := &cpuShares{}
			for _, p := range r.profiles {
				if err := cpu.add(p); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRunPrintsResultLine drives the command as a user would and checks
// the JSON line it ends with.
func TestRunPrintsResultLine(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for trace, want := range map[string]int{"0": len(bj.EndToEnd), "1": len(bj.PerLayer)} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "paper16", "--seed", "1", "--seconds", "0.01", "--trace", trace, "--spans", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var out map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range out {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Fatalf("trace %s: keys %v", trace, keys)
		}
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != want {
			t.Errorf("trace %s: correct %v, %d of %d failed, %d metrics (want %d)\n%s",
				trace, res.Correct, res.Failed, res.Attempted, len(res.Metrics), want, stderr.String())
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"stray"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestPinnedFingerprints runs each workload over its full horizon at the
// default seed.
func TestPinnedFingerprints(t *testing.T) {
	for _, name := range workloadNames {
		if testing.Short() && name != "paper16" {
			continue
		}
		wl, err := NewWorkload(name, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		chk := &checker{log: &log}
		if _, err := runRep(wl, 0, nil, false, chk); err != nil {
			t.Fatal(err)
		}
		if chk.failed != 0 {
			t.Errorf("%s: %s", name, log.String())
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack        []string
		layer        string
		unattributed bool
	}{
		{[]string{"runtime.mapassign", "roborepair/internal/netstack.(*NeighborTable).Upsert", "roborepair/internal/node.(*Sensor).onBeacon"}, "netstack", false},
		{[]string{"roborepair/internal/sim.(*Scheduler).Run", "main.runRep"}, "sim", false},
		{[]string{"roborepair/internal/rng.(*Source).Float64"}, "other", false},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime", false},
		{[]string{"runtime.memmove", "main.runRep"}, "runtime", true},
	} {
		layer, un := layerOf(tc.stack)
		if layer != tc.layer || un != tc.unattributed {
			t.Errorf("%v: got %s/%v, want %s/%v", tc.stack, layer, un, tc.layer, tc.unattributed)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "rep", Start: 0, End: 100, Parent: -1},
		{Name: "Sched.Run", Start: 10, End: 40, Parent: 0},
		{Name: "Sched.Run", Start: 40, End: 90, Parent: 0},
	}}
	self := tr.selfTimes()
	if got := self["rep"]; !reflect.DeepEqual(got, []time.Duration{20}) {
		t.Errorf("rep self %v, want [20]", got)
	}
	if got := self["Sched.Run"]; !reflect.DeepEqual(got, []time.Duration{30, 50}) {
		t.Errorf("Sched.Run self %v, want [30 50]", got)
	}
}

func TestReconcileCatchesMismatch(t *testing.T) {
	ok := []metric{
		{"radio.tx_total", "count", 3}, {"radio.tx.beacon", "count", 2}, {"radio.tx.other", "count", 1},
		{"sim.cpu_share", "share", 0.25}, {"runtime.cpu_share", "share", 0.75},
	}
	chk := &checker{log: io.Discard}
	reconcile(ok, chk)
	if chk.failed != 0 {
		t.Fatalf("consistent metrics failed %d checks", chk.failed)
	}
	bad := append([]metric{}, ok...)
	bad[1].Value = 1
	reconcile(bad, chk)
	if chk.failed != 1 {
		t.Fatalf("a radio.tx.* mismatch failed %d checks, want 1", chk.failed)
	}
}
