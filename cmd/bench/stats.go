package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p90 over 50 samples is decided by 5 requests and
// moves with every stray scheduling hiccup.
const minTail = 10

// rank returns the 1-based nearest-rank index of quantile p (0 < p <= 1)
// in n sorted samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank p-quantile of xs (NaN when empty).
// xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// supported reports whether at least minTail of n samples lie beyond the
// p-quantile.
func supported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minTail
}

// tailQuantiles are the tail percentiles considered for the informational
// tail line, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

// highestSupported returns the highest tail percentile that n samples
// support, or 0 when even p90 has fewer than minTail samples beyond it.
func highestSupported(n int) float64 {
	for _, p := range tailQuantiles {
		if supported(n, p) {
			return p
		}
	}
	return 0
}

// geomean returns the geometric mean of xs, or NaN when xs is empty or
// holds a value that is not positive and finite.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
