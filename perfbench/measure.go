package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
	"unsafe"

	"roborepair/internal/checkpoint"
	"roborepair/internal/ftdc"
	"roborepair/internal/scenario"
	"roborepair/internal/sim"
)

// rep is what one repetition of a workload measured: build the world, run
// it to the horizon in segments (taking a checkpoint part-way), then
// restore that checkpoint and, when the recorder is on, decode the
// recording.
//
// Times are CPU time of the simulating thread (see cpuTime); wall-clock
// time is kept alongside.
type rep struct {
	seed        int64
	setup       float64 // scenario.New, CPU seconds, median of setupBuilds builds
	setupAllocs uint64
	run         time.Duration // Σ Sched.Run segments + World.Run, CPU
	runWall     time.Duration // the same calls, wall clock
	events      uint64        // kernel events fired in the run phase
	allocs      uint64        // heap allocations in the run phase
	allocBytes  uint64        // heap bytes allocated in the run phase
	gcCycles    uint64        // GC cycles completed in the run phase
	gcCPU       float64       // GC CPU seconds in the run phase
	userCPU     float64       // user-code CPU seconds in the run phase
	peakLive    uint64        // live heap after a GC at the checkpoint or the horizon, the larger
	restore     time.Duration // checkpoint.Decode + scenario.Restore, CPU
	ckptBytes   int
	ftdcBytes   int // 0 when the recorder is off
	tableLen    int // Σ Sensor.Table().Len() at the horizon
	highWater   int // Sched.HighWater at the horizon
	fp          Fingerprint
	counts      []metric // per-layer counts, see repCounts
	profiles    [][]byte // run-phase CPU profiles (traced reps only)
}

// setupBuilds is how many times each rep builds its world.
const setupBuilds = 3

// cpuTime is the CPU time the calling thread has used. runRep locks its
// goroutine to its thread, so there this is the simulation's own CPU time: it leaves out the GC's background workers, which run on the
// other core, and the time a shared machine's hypervisor gives the CPU to
// someone else.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno)) // only EFAULT/EINVAL, which a bug alone causes
	}
	return time.Duration(ts.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall lacks.
const clockThreadCPUTime = 3

// clock reads wall and CPU time together.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func now() clock { return clock{time.Now(), cpuTime()} }

// since returns the wall and CPU time elapsed since c.
func (c clock) since() (wall, cpu time.Duration) {
	return time.Since(c.wall), cpuTime() - c.cpu
}

// runtimeStats samples the runtime counters a run phase is charged with.
type runtimeStats struct {
	samples []metrics.Sample
}

func newRuntimeStats() *runtimeStats {
	names := []string{
		"/gc/heap/live:bytes",
		"/gc/cycles/total:gc-cycles",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/user:cpu-seconds",
	}
	s := &runtimeStats{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		s.samples[i].Name = n
	}
	return s
}

// point is one reading of those counters.
type point struct {
	mallocs, bytes, live, cycles uint64
	gcCPU, userCPU               float64
}

func (s *runtimeStats) read() point {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(s.samples)
	return point{
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		live:    s.samples[0].Value.Uint64(),
		cycles:  s.samples[1].Value.Uint64(),
		gcCPU:   s.samples[2].Value.Float64(),
		userCPU: s.samples[3].Value.Float64(),
	}
}

// liveAfterGC collects garbage and returns the live heap: the same number
// on every rep of a seed, unlike a reading taken whenever the GC happens
// to have last run.
func (s *runtimeStats) liveAfterGC() uint64 {
	runtime.GC()
	return s.read().live
}

// charge adds the counters accrued from p0 to p1 to the rep's run phase.
func (r *rep) charge(p0, p1 point) {
	r.allocs += p1.mallocs - p0.mallocs
	r.allocBytes += p1.bytes - p0.bytes
	r.gcCycles += p1.cycles - p0.cycles
	r.gcCPU += p1.gcCPU - p0.gcCPU
	r.userCPU += p1.userCPU - p0.userCPU
}

// runRep runs the i-th rep of wl. A nil tracer records no spans; profile
// additionally takes a CPU profile of each run window. Failed operations
// and output checks are reported to chk.
func runRep(wl Workload, i int, tr *tracer, profile bool, chk *checker) (*rep, error) {
	runtime.LockOSThread() // so that cpuTime is this goroutine's
	defer runtime.UnlockOSThread()
	cfg := wl.config(i)
	rs := newRuntimeStats()
	r := &rep{seed: cfg.Seed}
	root := tr.begin("rep")
	defer tr.end(root)

	// Set up several times and keep the median: one build is too short
	// to time steadily. The last world built is the one that runs.
	var w *scenario.World
	setups := make([]float64, setupBuilds)
	for b := range setups {
		w = nil
		runtime.GC() // start every build, and the run, from the same heap
		p0 := rs.read()
		sp := tr.begin("scenario.New")
		c := now()
		var err error
		w, err = scenario.New(cfg)
		_, cpu := c.since()
		tr.end(sp)
		if !chk.op("scenario.New", err) {
			return nil, err
		}
		setups[b] = cpu.Seconds()
		r.setupAllocs = rs.read().mallocs - p0.mallocs
	}
	r.setup = median(setups)

	var res scenario.Results
	step := cfg.SimTime / float64(segments)
	timed := func(name string, f func()) {
		sp := tr.begin(name)
		c := now()
		f()
		wall, cpu := c.since()
		tr.end(sp)
		r.runWall += wall
		r.run += cpu
	}
	// window runs segments from..to; the last segment ends the run with
	// World.Run.
	window := func(from, to int) error {
		var prof bytes.Buffer
		if profile {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return fmt.Errorf("start CPU profile: %w", err)
			}
		}
		p0 := rs.read()
		for i := from; i <= to; i++ {
			timed("Sched.Run", func() { w.Sched.Run(sim.Time(step * float64(i))) })
		}
		if to == segments {
			timed("World.Run", func() { res = w.Run() })
		}
		r.charge(p0, rs.read())
		if profile {
			pprof.StopCPUProfile()
			r.profiles = append(r.profiles, prof.Bytes())
		}
		return nil
	}
	if err := window(1, wl.SnapshotAfter); err != nil {
		return nil, err
	}
	r.peakLive = rs.liveAfterGC()
	sp := tr.begin("World.Snapshot")
	snap, err := w.Snapshot()
	tr.end(sp)
	if !chk.op("World.Snapshot", err) {
		return nil, err
	}
	if err := window(wl.SnapshotAfter+1, segments); err != nil {
		return nil, err
	}
	r.events = w.Sched.Fired()
	r.highWater = w.Sched.HighWater()
	for _, s := range w.Sensors {
		r.tableLen += s.Table().Len()
	}
	r.peakLive = max(r.peakLive, rs.liveAfterGC())
	w = nil
	runtime.GC() // the restore starts from the same heap on every rep

	sp = tr.begin("checkpoint.Encode")
	enc, err := checkpoint.Encode(snap)
	tr.end(sp)
	if !chk.op("checkpoint.Encode", err) {
		return nil, err
	}
	r.ckptBytes = len(enc)
	c := now()
	sp = tr.begin("checkpoint.Decode")
	dec, err := checkpoint.Decode(enc)
	tr.end(sp)
	if chk.op("checkpoint.Decode", err) {
		sp = tr.begin("scenario.Restore")
		_, err = scenario.Restore(dec)
		tr.end(sp)
		_, r.restore = c.since()
		chk.op("scenario.Restore", err)
	}

	if rec := res.Recording; rec != nil {
		b, err := rec.Bytes()
		if chk.op("ftdc.Recorder.Bytes", err) {
			r.ftdcBytes = len(b)
			sp = tr.begin("ftdc.Decode")
			got, err := ftdc.Decode(b)
			tr.end(sp)
			if chk.op("ftdc.Decode", err) {
				chk.expect("ftdc rows", got.NumRows() > 0, "decoded recording has no rows")
			}
		}
	}
	// Keep numbers only: a rep that held on to its Results (registry,
	// recordings) would grow the live heap the later reps measure.
	r.fp = fingerprint(res, r.events)
	r.counts = repCounts(r, res)
	checkResults(wl.Name, r, res, chk)
	return r, nil
}

// repeat calls body(0), body(1), … until budget is spent, never starting a
// call that the slowest call so far says would overrun it. It makes at
// least atLeast calls whatever the budget.
func repeat(budget time.Duration, atLeast int, body func(i int) error) error {
	start := time.Now()
	var slowest time.Duration
	for i := 0; i < atLeast || time.Since(start)+slowest <= budget; i++ {
		t0 := time.Now()
		if err := body(i); err != nil {
			return err
		}
		slowest = max(slowest, time.Since(t0))
	}
	return nil
}

// acrossSeeds reduces reps to one number: the median of f over each
// simulation seed's reps, averaged over the seeds.
func acrossSeeds(reps []*rep, f func(*rep) float64) float64 {
	bySeed := map[int64][]float64{}
	var order []int64
	for _, r := range reps {
		if _, ok := bySeed[r.seed]; !ok {
			order = append(order, r.seed)
		}
		bySeed[r.seed] = append(bySeed[r.seed], f(r))
	}
	sum := 0.0
	for _, s := range order {
		sum += median(bySeed[s])
	}
	return sum / float64(len(order))
}

// overReps is the median of f over all reps. It suits times, which vary
// more from rep to rep on a shared machine than from seed to seed.
func overReps(reps []*rep, f func(*rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd reduces untraced reps to the end-to-end metrics: times by
// overReps, counts by acrossSeeds.
func endToEnd(wl Workload, reps []*rep) []metric {
	return []metric{
		{"sim_s_per_s", "sim-s/s", overReps(reps, func(r *rep) float64 { return wl.Cfg.SimTime / r.run.Seconds() })},
		{"setup_s", "s", overReps(reps, func(r *rep) float64 { return r.setup })},
		{"allocs_per_event", "allocs/event", acrossSeeds(reps, func(r *rep) float64 { return float64(r.allocs) / float64(r.events) })},
		{"bytes_per_event", "B/event", acrossSeeds(reps, func(r *rep) float64 { return float64(r.allocBytes) / float64(r.events) })},
		{"peak_heap_mb", "MB", acrossSeeds(reps, func(r *rep) float64 { return float64(r.peakLive) / (1 << 20) })},
		{"restore_s", "s", overReps(reps, func(r *rep) float64 { return r.restore.Seconds() })},
	}
}
