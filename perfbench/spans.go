package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	Parent int           `json:"parent"` // index into the span list, -1 at the root
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of unfinished spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes reduces the spans to self time per name: each span's duration
// minus the part of it that its children cover. Children of one span never
// overlap (the benchmark is single-threaded), so that part is their sum.
func (t *tracer) selfTimes() map[string][]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string][]time.Duration)
	for i, s := range t.spans {
		self[s.Name] = append(self[s.Name], s.End-s.Start-child[i])
	}
	return self
}

// medianSelf is the median self time of the spans called name, in seconds.
func (t *tracer) medianSelf(name string) float64 {
	ds := t.selfTimes()[name]
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// summary renders total and median self time per span name.
func (t *tracer) summary() string {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	out := fmt.Sprintf("%-20s %6s %12s %12s\n", "span", "calls", "self_total_s", "self_med_s")
	for _, n := range names {
		var total time.Duration
		xs := make([]float64, len(self[n]))
		for i, d := range self[n] {
			total += d
			xs[i] = d.Seconds()
		}
		out += fmt.Sprintf("%-20s %6d %12.6f %12.6f\n", n, len(xs), total.Seconds(), median(xs))
	}
	return out
}

// write stores the spans as JSON in dir/name.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
