package telemetry

import (
	"math"
	"testing"

	"roborepair/internal/metrics"
)

// The repair-delay and backlog histograms the collector summarises and the
// exporters write are doubling-layout metrics.Histograms. These tests pin
// the behaviour the telemetry output relies on.

// TestLogHistogramBucketBoundaries pins the bucket-edge rule: bucket 0
// closes at first, every later bucket doubles, and a sample exactly on a
// boundary lands in the bucket that boundary closes.
func TestLogHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		x    float64
		want int // bucket index, or -1 for overflow
	}{
		{0, 0}, {5, 0}, {10, 0},
		{10.0001, 1}, {20, 1},
		{20.0001, 2}, {40, 2},
		{40.0001, 3}, {80, 3},
		{80.0001, -1}, {1e9, -1},
		{-3, 0}, // negatives clamp to bucket 0
	}
	for _, c := range cases {
		h := metrics.NewDoublingHistogram(10, 4) // edges: 10, 20, 40, 80
		h.Add(c.x)
		if c.want < 0 {
			if h.Overflow() != 1 {
				t.Errorf("Add(%v): want overflow, got %v", c.x, h)
			}
			continue
		}
		if h.Count(c.want) != 1 {
			t.Errorf("Add(%v): want bucket %d, got %v overflow=%d", c.x, c.want, h, h.Overflow())
		}
	}
	h := metrics.NewDoublingHistogram(10, 4)
	for i, want := range []float64{10, 20, 40, 80} {
		if got := h.UpperBound(i); got != want {
			t.Errorf("UpperBound(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestLogHistogramStatsAndQuantiles(t *testing.T) {
	h := metrics.NewDoublingHistogram(1, 10) // edges 1,2,4,...,512
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Quantile(0) != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.Quantile(0), h.Max())
	}
	if got, want := h.Mean(), 50.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	// p50 rank is 50 → bucket (32,64] → upper edge 64.
	if got := h.Quantile(0.5); got != 64 {
		t.Errorf("p50 = %v, want 64", got)
	}
	// p99 rank 99 → bucket (64,128] → 128.
	if got := h.Quantile(0.99); got != 128 {
		t.Errorf("p99 = %v, want 128", got)
	}
}

func TestLogHistogramOverflowQuantile(t *testing.T) {
	h := metrics.NewDoublingHistogram(1, 2) // edges 1, 2
	h.Add(0.5)
	h.Add(1000)
	if h.Overflow() != 1 {
		t.Fatalf("overflow = %d", h.Overflow())
	}
	// The top quantile falls in overflowed mass → the observed max.
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("q1 = %v, want observed max 1000", got)
	}
}

func TestLogHistogramNaNDropped(t *testing.T) {
	h := metrics.NewDoublingHistogram(1, 4)
	h.Add(math.NaN())
	if h.N() != 0 {
		t.Fatalf("NaN was ingested: n=%d", h.N())
	}
}
