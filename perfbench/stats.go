package main

import (
	"math"
	"sort"
)

// median returns the middle value of v (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4) (its default
// "exclusive" method), so every spread this benchmark prints can be
// recomputed from its per-run values with that one call.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	q1, m, q3 := quartiles(v)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// tailLadder lists the percentiles the tail picker may report.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is the number of samples that must rank above a reported
// percentile, so that one outlier cannot be the whole tail.
const minBeyond = 10

// tailPercentile picks the highest ladder percentile that still has at
// least minBeyond samples ranked above it, by nearest rank, and returns the
// percentile and its value. ok is false when even the median has fewer
// than minBeyond samples beyond it.
func tailPercentile(v []float64) (pct, val float64, ok bool) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}
