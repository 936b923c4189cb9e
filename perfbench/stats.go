package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer, and the value is one of a handful of outliers.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder that has
// at least minBeyond of n samples beyond it, and false when even the
// median lacks that support.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		// Samples strictly above the p-th percentile: the count left
		// after the ceil(n·p/100) samples at or below it.
		if n-int(math.Ceil(float64(n)*p/100)) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}
