package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, 0 when
// xs is empty. xs is sorted in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, 0 when b is 0 (an unexercised layer reads as zero, never
// as NaN, which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
