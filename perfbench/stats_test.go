package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {99, 4.96}, {100, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
}

func TestMidMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{1, 2, 3}, 2},
		// n=4 drops one value at each end.
		{[]float64{100, 1, 2, 3}, 2.5},
		// n=9 drops two at each end: a stall and a burst do not count.
		{[]float64{10, 11, 0, 12, 13, 14, 99, 15, 16}, 13},
	} {
		if got := midMean(c.xs); !near(got, c.want) {
			t.Errorf("midMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns, including its extrapolation below the minimum for tiny samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 60},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestRelativeSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := relativeSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("relativeSpread = %v, want %v", got, want)
	}
	if got := relativeSpread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("relativeSpread of zeros = %v, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}
	if got := geomean([]float64{0, -1, 4}); !near(got, 4) {
		t.Errorf("geomean skipping non-positive values = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of an empty sample = %v, want 0", got)
	}
}
