package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0..1) of sorted values by linear
// interpolation between closest ranks.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median returns the median of values (unsorted input is not modified).
func median(values []float64) float64 {
	s := sortedCopy(values)
	return quantile(s, 0.5)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// beyond is how many of n samples lie above percentile p.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// quartiles returns the first and third quartiles and the median the way
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), so spreads match the acceptance arithmetic.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(n-1, j))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
