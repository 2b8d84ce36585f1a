package main

import (
	"math"
	"sort"
)

// samples is a set of measured values of one metric (milliseconds,
// seconds, whatever the metric's unit is).
type samples []float64

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) and
// the number of samples it was chosen from. Nearest rank always returns a
// value that was actually measured: with n samples the p-th percentile is
// the ceil(p/100*n)-th smallest. An empty set yields (0, 0).
func (s samples) percentile(p float64) (float64, int) {
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n
}

// median is the middle value (the mean of the two middle values for an
// even count). Used for set-up times and per-run summaries, where the
// value need not be one that was measured.
func (s samples) median() float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}
