package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 0.5, 1},
		{2, 0.5, 1},
		{10, 0.5, 5},
		{10, 0.9, 9},
		{100, 0.9, 90},
		{100, 0.99, 99},
		{101, 0.5, 51},
		{1000, 0.999, 999},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	xs := seq(5)
	percentile(xs, 0.5)
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// TestSupportedNeedsTenBeyond pins the reporting rule: a percentile is
// reported only when at least ten samples lie beyond it.
func TestSupportedNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{0, 0.5, false},
		{19, 0.5, false}, // rank 10, 9 beyond
		{20, 0.5, true},  // rank 10, 10 beyond
		{99, 0.9, false}, // rank 90, 9 beyond
		{100, 0.9, true}, // rank 90, 10 beyond
		{999, 0.99, false},
		{1000, 0.99, true},
		{9999, 0.999, false},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
		if beyond := c.n - rank(c.n, c.p); c.n > 0 && (beyond >= minTail) != c.want {
			t.Errorf("n=%d p=%v: %d samples beyond the percentile", c.n, c.p, beyond)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {20000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean(1, 10, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{3}); !near(got, 3) {
		t.Errorf("geomean(3) = %v", got)
	}
	// Far above any float's product range, so a naive product overflows.
	big := make([]float64, 400)
	for i := range big {
		big[i] = 1e300
	}
	if got := geomean(big); !near(got, 1e300) {
		t.Errorf("geomean of 400 x 1e300 = %v", got)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {1, math.Inf(1)}, {math.NaN()}} {
		if got := geomean(bad); !math.IsNaN(got) {
			t.Errorf("geomean(%v) = %v, want NaN", bad, got)
		}
	}
}
