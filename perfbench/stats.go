package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile is only reported when at least this many observations exceed
// it, so the tail figure is not one or two outliers.
const minTail = 10

// tailSupported reports whether n samples put at least minTail observations
// beyond the p-th percentile.
func tailSupported(n int, p float64) bool {
	return float64(n)*(100-p) >= minTail*100-1e-9
}

// percentile is the p-th percentile of vs by linear interpolation between
// closest ranks; 0 for no samples.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	rank := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return c[lo] + (c[hi]-c[lo])*(rank-float64(lo))
}

// median is the 50th percentile.
func median(vs []float64) float64 { return percentile(vs, 50) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
