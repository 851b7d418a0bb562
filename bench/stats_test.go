package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestNearestRank(t *testing.T) {
	vs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {10, 10}, {11, 20}, {50, 50}, {90, 90}, {91, 100}, {100, 100},
	} {
		if got := nearestRank(vs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// The tail percentile is the highest on the ladder that leaves at least ten
// samples beyond its rank: 121 epoch-lag samples support p90 (12 beyond)
// but not p95 (6 beyond).
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{121, 90, true},
		{4800, 99, true},
		{10010, 99.9, true},
		{1000, 99, true},
		{999, 95, true},
		{41, 75, true},
		{20, 50, true},
		{19, 0, false},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rankOf(tc.n, p) < 10 {
			t.Errorf("n=%d p%v leaves fewer than ten samples beyond it", tc.n, p)
		}
	}
}

// Quartiles must equal Python's statistics.quantiles(data, n=4), the
// computation the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5.5, 1.25, 9.0, 2.0, 7.75, 3.5, 4.0}, [3]float64{2, 4, 7.75}},
	} {
		q1, q2, q3, ok := quartiles(tc.in)
		if !ok || [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.in, q1, q2, q3, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should not be ok")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
