// Command perfbench is roborepair's benchmark. It builds one workload's
// scenario.Config from a seed, runs the simulator single-threaded for a
// fixed wall-clock budget, checks the outputs, and prints every metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 they are the per-layer ones: counts read through the
// program's accessors, CPU shares from a run-phase profile, and span self
// times, with spans written under .bench_build/spans.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload paper16 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "paper16", fmt.Sprintf("workload, one of %v", workloadNames))
	seed := fs.Int64("seed", DefaultSeed, fmt.Sprintf("benchmark seed; seed s runs simulation seeds %[1]d(s-1)+1 … %[1]ds", simSeeds))
	seconds := fs.Float64("seconds", 10, "wall-clock seconds to run reps for")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	spanDir := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 || *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: want -trace 0|1, -seconds > 0 and no arguments")
		return 2
	}
	wl, err := NewWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	chk := &checker{log: stderr}
	var ms []metric
	if *traceFlag == 0 {
		ms, err = untraced(wl, budget, chk, stderr)
	} else {
		ms, err = traced(wl, budget, chk, stderr, *spanDir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Metrics: map[string]map[string]any{}}
	for _, m := range ms {
		if !chk.expect("finite "+m.Name, !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0), "value %v", m.Value) {
			m.Value = 0
		}
		out.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		fmt.Fprintf(stderr, "%-34s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	out.Attempted, out.Failed = chk.attempted, chk.failed
	out.Correct = chk.failed == 0
	fmt.Fprintf(stderr, "failed_ops %d of %d\n", chk.failed, chk.attempted)
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// untraced measures the end-to-end metrics. The per-layer counts are read
// too, and printed to stderr, so every run shows them.
func untraced(wl Workload, budget time.Duration, chk *checker, log io.Writer) ([]metric, error) {
	var reps []*rep
	err := repeat(budget, len(wl.Seeds), func(i int) error {
		r, err := runRep(wl, i, nil, false, chk)
		if err != nil {
			return err
		}
		fmt.Fprintf(log, "rep %d seed %d: run %.3f CPU-s (%.3f s wall), setup %.4f s, restore %.3f s\n",
			i, r.seed, r.run.Seconds(), r.runWall.Seconds(), r.setup, r.restore.Seconds())
		reps = appendChecked(reps, r, chk)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s seed %d: %d reps over simulation seeds %v\n", wl.Name, wl.Seed, len(reps), wl.Seeds)
	for _, m := range layerCounts(wl, reps) {
		fmt.Fprintf(log, "  %-32s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	return endToEnd(wl, reps), nil
}

// traced measures the per-layer metrics. It alternates untraced reps with
// traced and profiled ones, so that the tracing overhead is measured in
// the same process, and checks that both kinds fire the same events.
func traced(wl Workload, budget time.Duration, chk *checker, log io.Writer, spanDir string) ([]metric, error) {
	tr := newTracer()
	var plain, reps []*rep
	err := repeat(budget, len(wl.Seeds), func(i int) error {
		p, err := runRep(wl, i, nil, false, chk)
		if err != nil {
			return err
		}
		plain = appendChecked(plain, p, chk)
		r, err := runRep(wl, i, tr, true, chk)
		if err != nil {
			return err
		}
		checkSameRun(p, r, chk)
		reps = appendChecked(reps, r, chk)
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu := &cpuShares{}
	for _, r := range reps {
		for _, p := range r.profiles {
			chk.op("decode CPU profile", cpu.add(p))
		}
	}
	chk.expect("profile samples", cpu.total > 0, "run-phase profile has no samples")
	runTime := func(r *rep) float64 { return r.run.Seconds() }
	overhead := overReps(reps, runTime)/overReps(plain, runTime) - 1
	ms := append(layerCounts(wl, reps), tracedMetrics(cpu, tr, overhead)...)
	reconcile(ms, chk)
	fmt.Fprintf(log, "%s seed %d: %d traced reps over simulation seeds %v\n%s", wl.Name, wl.Seed, len(reps), wl.Seeds, tr.summary())
	chk.op("write spans", tr.write(spanDir, fmt.Sprintf("%s-seed%d.json", wl.Name, wl.Seed)))
	return ms, nil
}

// appendChecked appends r to reps after checking that it reproduced the
// first rep of its simulation seed.
func appendChecked(reps []*rep, r *rep, chk *checker) []*rep {
	for _, first := range reps {
		if first.seed == r.seed {
			checkSameRun(first, r, chk)
			break
		}
	}
	return append(reps, r)
}

// reconcile checks that the per-layer metrics add up: the radio.tx.*
// counts sum to radio.tx_total and the CPU shares sum to one.
func reconcile(ms []metric, chk *checker) {
	var tx, total, shares float64
	for _, m := range ms {
		switch {
		case m.Name == "radio.tx_total":
			total = m.Value
		case strings.HasPrefix(m.Name, "radio.tx."):
			tx += m.Value
		case strings.HasSuffix(m.Name, ".cpu_share"):
			shares += m.Value
		}
	}
	chk.expect("Σ radio.tx.*", math.Abs(tx-total) <= 1e-9*total, "radio.tx.* sum to %v, radio.tx_total %v", tx, total)
	chk.expect("Σ cpu_share", math.Abs(shares-1) < 1e-9, "cpu shares sum to %v", shares)
}
