package main

import (
	"math"
	"sort"
)

// sortedCopy returns vs sorted ascending, leaving vs untouched.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of vs (the mean of the middle two for an even
// count); NaN for no samples.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the p-th percentile of vs by the nearest-rank method: the
// smallest sample with at least p% of the samples at or below it.
func nearestRank(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(vs)
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile on tailLadder that leaves at
// least ten of n samples beyond its nearest rank, so a reported tail is
// never one or two outliers. ok is false when even the median leaves fewer
// than ten beyond it (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rankOf(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// quartiles returns the three cut points that split vs into four groups,
// computed exactly as Python's statistics.quantiles(vs, n=4) does with its
// default "exclusive" method, so spreads printed here match the ones an
// outside check computes. It needs at least two samples.
func quartiles(vs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(vs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(vs)
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], true
}

// spread is the interquartile range of vs as a share of its median: the
// run-to-run noise measure the benchmark's bounds are compared against.
// With fewer than two samples it is 0.
func spread(vs []float64) float64 {
	q1, q2, q3, ok := quartiles(vs)
	if !ok || q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
