package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the percentiles a report may quote, highest last.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// supportedPercentile is the highest quotable percentile with at least ten
// samples beyond it in a sample of n, or 0 when even the median has fewer.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}
