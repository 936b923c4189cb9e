package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 99, true},
		{1000, 99, true}, // exactly ten beyond p99
		{999, 90, true},  // nine beyond p99
		{100, 90, true},
		{99, 75, true},
		{40, 75, true},
		{39, 50, true},
		{20, 50, true},
		{19, 0, false}, // nine beyond the median
		{0, 0, false},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}
