package metrics

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(10, 10)
	if h.N() != 0 || h.Quantile(0.5) != 0 || h.Sparkline() != "" {
		t.Fatal("empty histogram misbehaves")
	}
	var absent *Histogram
	absent.Add(1) // an absent histogram swallows samples
}

// TestHistogramAdd pins where Add puts a sample, for both layouts: a
// sample equal to a bound lands in the bucket that bound closes, negatives
// and −Inf land in bucket 0, +Inf and huge samples count as overflow, and
// NaN is dropped; none of them may panic. Single-sample rows read the
// landing bucket back through Quantile(1), which reports the bucket's
// upper bound, or the sample itself when it overflowed.
func TestHistogramAdd(t *testing.T) {
	type qw struct{ q, want float64 }
	type row struct {
		name      string
		h         *Histogram
		xs        []float64
		n         int
		overflow  uint64
		mean, max float64
		quantiles []qw
	}
	inf := math.Inf(1)
	layouts := []struct {
		name string
		mk   func() *Histogram
	}{
		{"linear", func() *Histogram { return NewHistogram(10, 4) }},           // bounds 10, 20, 30, 40
		{"doubling", func() *Histogram { return NewDoublingHistogram(10, 4) }}, // bounds 10, 20, 40, 80
	}
	one := func(layout int, x, bound float64) row {
		return row{
			name: fmt.Sprintf("%s/%v", layouts[layout].name, x),
			h:    layouts[layout].mk(), xs: []float64{x},
			n: 1, mean: x, max: x, quantiles: []qw{{1, bound}},
		}
	}
	over := func(layout int, x float64) row {
		r := one(layout, x, x)
		r.overflow = 1
		return r
	}
	var rows []row
	for l := range layouts {
		rows = append(rows,
			one(l, 0, 10), one(l, 5, 10), one(l, 10, 10),
			one(l, 10.0001, 20), one(l, 20, 20),
			one(l, -3, 10), one(l, -inf, 10),
			over(l, inf), over(l, 1e300),
			row{name: layouts[l].name + "/NaN", h: layouts[l].mk(), xs: []float64{math.NaN()}},
		)
	}
	rows = append(rows,
		one(0, 20.0001, 30), one(0, 40, 40), over(0, 40.0001),
		one(1, 20.0001, 40), one(1, 40, 40), one(1, 40.0001, 80),
		one(1, 80, 80), over(1, 80.0001), over(1, 1e9),
		row{
			// Bounds 1, 2, 4, …, 512: rank 50 sits in (32,64], rank 99 in
			// (64,128]; q=0 reports the exact minimum.
			name: "doubling/quantiles", h: NewDoublingHistogram(1, 10),
			xs: seq(1, 100), n: 100, mean: 50.5, max: 100,
			quantiles: []qw{{0.5, 64}, {0.99, 128}, {0, 1}},
		},
		row{
			// The top quantile falls in overflowed mass: the observed max.
			name: "doubling/overflow-quantile", h: NewDoublingHistogram(1, 2),
			xs: []float64{0.5, 1000}, n: 2, overflow: 1, mean: 500.25, max: 1000,
			quantiles: []qw{{0.5, 1}, {1, 1000}},
		},
	)
	for _, r := range rows {
		for _, x := range r.xs {
			r.h.Add(x)
		}
		if r.h.N() != r.n || r.h.Overflow() != r.overflow {
			t.Errorf("%s: n/overflow = %d/%d, want %d/%d", r.name, r.h.N(), r.h.Overflow(), r.n, r.overflow)
		}
		if r.h.Mean() != r.mean || r.h.Max() != r.max {
			t.Errorf("%s: mean/max = %v/%v, want %v/%v", r.name, r.h.Mean(), r.h.Max(), r.mean, r.max)
		}
		for _, c := range r.quantiles {
			if got := r.h.Quantile(c.q); got != c.want {
				t.Errorf("%s: Quantile(%v) = %v, want %v", r.name, c.q, got, c.want)
			}
		}
	}
	for l, want := range [][]float64{{10, 20, 30, 40}, {10, 20, 40, 80}} {
		h := layouts[l].mk()
		for i, ub := range want {
			if got := h.UpperBound(i); got != ub {
				t.Errorf("%s: UpperBound(%d) = %v, want %v", layouts[l].name, i, got, ub)
			}
		}
	}
}

func seq(lo, hi int) []float64 {
	var xs []float64
	for i := lo; i <= hi; i++ {
		xs = append(xs, float64(i))
	}
	return xs
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(1, 100)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i) - 0.5) // one sample per bucket
	}
	if got := h.Quantile(0.5); math.Abs(got-50) > 1 {
		t.Fatalf("p50 = %v, want ≈50", got)
	}
	if got := h.Quantile(0.95); math.Abs(got-95) > 1 {
		t.Fatalf("p95 = %v, want ≈95", got)
	}
	if got := h.Quantile(1); math.Abs(got-100) > 1 {
		t.Fatalf("p100 = %v, want ≈100", got)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Add(5)
	h.Add(1e6)
	if h.Overflow() != 1 {
		t.Fatalf("overflow = %d", h.Overflow())
	}
	// Quantiles beyond the bucketed mass report the true max.
	if got := h.Quantile(0.99); got != 1e6 {
		t.Fatalf("overflowed quantile = %v, want observed max", got)
	}
	if h.Max() != 1e6 {
		t.Fatalf("Max = %v", h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Add(-5)
	if h.N() != 1 || h.Overflow() != 0 {
		t.Fatal("negative sample mishandled")
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("quantile of clamped sample = %v, want first bucket edge", got)
	}
}

func TestHistogramDegenerateParams(t *testing.T) {
	h := NewHistogram(0, 0)
	h.Add(0.5)
	if h.N() != 1 {
		t.Fatal("degenerate params broke Add")
	}
}

func TestHistogramSparkline(t *testing.T) {
	h := NewHistogram(1, 5)
	for i := 0; i < 8; i++ {
		h.Add(2.5)
	}
	h.Add(0.5)
	s := []rune(h.Sparkline())
	if len(s) != 5 {
		t.Fatalf("sparkline length = %d", len(s))
	}
	if s[2] != '█' {
		t.Fatalf("modal bucket glyph = %c", s[2])
	}
}

func TestRegistryHistogramLazyCreation(t *testing.T) {
	r := NewRegistry()
	if r.Hist("x") != nil {
		t.Fatal("absent histogram should be nil")
	}
	h := r.Histogram("x", 10, 20)
	h.Add(15)
	if r.Hist("x") != h {
		t.Fatal("histogram not retained")
	}
	// Same name returns the same instance regardless of params.
	if r.Histogram("x", 999, 1) != h {
		t.Fatal("duplicate creation")
	}
}

// Property, for both layouts: a sample x is counted in bucket i exactly
// when UpperBound(i-1) < x ≤ UpperBound(i) (above the last bound: overflow),
// and the bucket-estimated quantile is never below the true quantile. For
// the linear layout it is also within one bucket width above it.
func TestPropertyQuantileAccuracy(t *testing.T) {
	layouts := []struct {
		mk    func() *Histogram
		slack float64 // max distance above the true quantile; <0: unchecked
	}{
		{func() *Histogram { return NewHistogram(5, 52) }, 5},         // covers 0..260 ≥ max uint8
		{func() *Histogram { return NewDoublingHistogram(1, 8) }, -1}, // bounds 1..128: 129..255 overflow
	}
	for _, l := range layouts {
		prop := func(raw []uint8) bool {
			if len(raw) == 0 {
				return true
			}
			h := l.mk()
			var xs []float64
			for _, v := range raw {
				x := float64(v)
				xs = append(xs, x)
				h.Add(x)
			}
			lower := math.Inf(-1)
			for i := 0; i <= h.Buckets(); i++ {
				upper, got := math.Inf(1), h.Overflow()
				if i < h.Buckets() {
					upper, got = h.UpperBound(i), h.Count(i)
				}
				var want uint64
				for _, x := range xs {
					if lower < x && x <= upper {
						want++
					}
				}
				if got != want {
					return false
				}
				lower = upper
			}
			sortFloats(xs)
			for _, q := range []float64{0.25, 0.5, 0.9, 1} {
				idx := int(math.Ceil(q*float64(len(xs)))) - 1
				if idx < 0 {
					idx = 0
				}
				truth := xs[idx]
				est := h.Quantile(q)
				if est < truth || (l.slack >= 0 && est > truth+l.slack+1e-9) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
