package main

import (
	"slices"
	"time"
)

// fastestDecile returns the 10th percentile of xs by nearest rank: the
// fastest sample of up to ten, the second fastest of 11 to 20, and so on.
// Interference from other work on a shared machine only ever adds time to
// an op, so the low tail of repeated timings is the steadiest estimate of
// what the code itself costs. xs must not be empty.
func fastestDecile(xs []time.Duration) time.Duration {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[(len(s)+9)/10-1]
}

// nearestRank returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule. sorted must not be empty.
func nearestRank(sorted []time.Duration, p int) time.Duration {
	rank := (p*len(sorted) + 99) / 100
	return sorted[max(rank, 1)-1]
}

// tailLadder lists the percentiles a tail figure may report, highest
// first.
var tailLadder = []int{99, 90}

// tailPercentile returns the highest percentile in tailLadder that leaves
// at least ten samples of sorted beyond it, and its value. With too few
// samples for any of them it falls back to the median. sorted must not be
// empty.
func tailPercentile(sorted []time.Duration) (p int, v time.Duration) {
	n := len(sorted)
	for _, p := range tailLadder {
		if n-(p*n+99)/100 >= 10 {
			return p, nearestRank(sorted, p)
		}
	}
	return 50, nearestRank(sorted, 50)
}

// residual is the share of traced wall time that no layer's self time
// accounts for: 1 − Σ self ÷ wall.
func residual(self, wall float64) float64 {
	return 1 - self/wall
}

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs must not be empty.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
