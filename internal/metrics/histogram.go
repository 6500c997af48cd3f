package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a bucketed histogram with quantile estimation, used for
// distributional views the mean hides (e.g. the p99 repair delay under
// burst backlogs). Buckets are a sorted slice of inclusive upper bounds:
// a sample x lands in the first bucket i with x ≤ UpperBound(i) (the
// Prometheus `le` rule), so a sample equal to a bound is counted in the
// bucket that bound closes. Samples above the last bound count as
// overflow; NaN is dropped.
type Histogram struct {
	bounds   []float64
	counts   []uint64
	overflow uint64
	acc      Accumulator
}

// NewHistogram returns a linear histogram: `buckets` buckets of the given
// width, bucket i closing at (i+1)·width.
func NewHistogram(width float64, buckets int) *Histogram {
	if width <= 0 {
		width = 1
	}
	bounds := make([]float64, max(buckets, 1))
	for i := range bounds {
		bounds[i] = float64(i+1) * width
	}
	return newHistogram(bounds)
}

// NewDoublingHistogram returns a logarithmic histogram: bucket 0 closes at
// first and every following bucket doubles the bound, so a handful of
// buckets span several decades with constant relative error. Bounds are
// computed by exact float doubling.
func NewDoublingHistogram(first float64, buckets int) *Histogram {
	if first <= 0 {
		first = 1
	}
	bounds := make([]float64, max(buckets, 1))
	for i := range bounds {
		bounds[i] = first
		first *= 2
	}
	return newHistogram(bounds)
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
}

// Add ingests one sample; negative samples land in bucket 0 and NaN is
// dropped. Adding to a nil histogram is a no-op, so an absent (disabled)
// histogram can be fed without a check at the call site.
func (h *Histogram) Add(x float64) {
	if h == nil || math.IsNaN(x) {
		return
	}
	h.acc.Add(x)
	if i := sort.SearchFloat64s(h.bounds, x); i < len(h.counts) {
		h.counts[i]++
	} else {
		h.overflow++
	}
}

// N reports the number of samples.
func (h *Histogram) N() int { return h.acc.N() }

// Mean reports the exact sample mean.
func (h *Histogram) Mean() float64 { return h.acc.Mean() }

// Max reports the exact maximum sample.
func (h *Histogram) Max() float64 { return h.acc.Max() }

// Sum reports the exact sample total.
func (h *Histogram) Sum() float64 { return h.acc.Sum() }

// Overflow reports samples beyond the last bound.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Buckets reports the number of regular (non-overflow) buckets.
func (h *Histogram) Buckets() int { return len(h.counts) }

// UpperBound reports the inclusive upper bound of bucket i.
func (h *Histogram) UpperBound(i int) float64 { return h.bounds[i] }

// Count reports the occupancy of bucket i.
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// Quantile estimates the q-quantile (0 < q ≤ 1) as the upper bound of the
// bucket holding the target rank; overflowed mass reports the observed
// maximum.
func (h *Histogram) Quantile(q float64) float64 {
	n := uint64(h.acc.N())
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.acc.Min()
	}
	if q > 1 {
		q = 1
	}
	target := max(uint64(math.Ceil(q*float64(n))), 1)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return h.bounds[i]
		}
	}
	return h.acc.Max()
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f",
		h.N(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

// Sparkline renders the bucket occupancy as a compact bar string (for
// CLI output); empty when no samples.
func (h *Histogram) Sparkline() string {
	if h.N() == 0 {
		return ""
	}
	levels := []rune(" ▁▂▃▄▅▆▇█")
	var max uint64
	for _, c := range h.counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return ""
	}
	var b strings.Builder
	for _, c := range h.counts {
		idx := int(float64(c) / float64(max) * float64(len(levels)-1))
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// Histogram returns the named histogram, creating a linear one (see
// NewHistogram) on first use. Width/buckets apply only at creation.
func (r *Registry) Histogram(name string, width float64, buckets int) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	return r.addHist(name, NewHistogram(width, buckets))
}

// DoublingHistogram returns the named histogram, creating a doubling one
// (see NewDoublingHistogram) on first use. First/buckets apply only at
// creation.
func (r *Registry) DoublingHistogram(name string, first float64, buckets int) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	return r.addHist(name, NewDoublingHistogram(first, buckets))
}

func (r *Registry) addHist(name string, h *Histogram) *Histogram {
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	r.hists[name] = h
	return h
}

// Hist returns the named histogram, or nil when absent.
func (r *Registry) Hist(name string) *Histogram {
	return r.hists[name]
}

// HistNames lists all registered histograms, sorted (for exporters).
func (r *Registry) HistNames() []string {
	out := make([]string, 0, len(r.hists))
	for k := range r.hists {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
