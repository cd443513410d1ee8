package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two nearest order statistics — the same
// definition for every latency this benchmark prints, so p50/p95/p99 compare
// across workloads and commits. xs need not be sorted; it is not modified.
// An empty sample has no quantile and answers 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile over an already sorted sample.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// segments is how many equal-time slices the timed pass is cut into. Every
// timing metric is the median over the slices of that slice's value, so a
// noisy-neighbour burst moves at most the slices it touches and, short of
// touching three of five, never the median.
const segments = 5

// segmentOf returns the index of the segment a completion time falls in:
// segment k covers (bounds[k], bounds[k+1]]. bounds is ascending and has
// one more entry than there are segments; times outside it clamp to the
// first or last segment.
func segmentOf(bounds []float64, t float64) int {
	k := sort.SearchFloat64s(bounds, t) - 1 // first bound >= t closes the segment
	return min(max(k, 0), len(bounds)-2)
}

// minMax returns the extremes of xs (0, 0 when empty).
func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}
