package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: with fewer, the "p99" of a run is one or two samples
// and says nothing about the tail.
const minBeyond = 10

// Median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for no samples. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the nearest-rank p-quantile of xs and whether it may
// be reported: ok is false unless at least minBeyond samples lie beyond
// it. xs is not modified.
func Percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	rank := nearestRank(p, n)
	s := sortedCopy(xs)
	return s[rank-1], n-rank >= minBeyond
}

// nearestRank is the 1-based rank of the p-quantile among n samples. The
// epsilon keeps p·n from rounding up past an exact integer (0.99·1000).
func nearestRank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)-1e-9)))
}

// MinSamples is the smallest sample count at which Percentile reports p.
func MinSamples(p float64) int {
	n := 1
	for n-nearestRank(p, n) < minBeyond {
		n++
	}
	return n
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
