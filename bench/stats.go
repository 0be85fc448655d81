package main

import (
	"math"
	"sort"
)

// samples holds one class's latencies in nanoseconds.
type samples []int64

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of a
// sorted sample, 0 when empty.
func percentile(sorted samples, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

// tailPerMille are the tail percentiles the bench may report, ascending,
// in thousandths.
var tailPerMille = []int{900, 950, 990, 999}

// highestPercentile is the reporting rule for tails: the highest listed
// percentile that leaves at least ten of n samples beyond it, 50 when none
// does.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, pm := range tailPerMille {
		if n*(1000-pm)/1000 >= 10 {
			best = float64(pm) / 10
		}
	}
	return best
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if n := len(c); n%2 == 1 {
		return c[n/2]
	} else {
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// geomean is the geometric mean of the positive entries of v.
func geomean(v []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range v {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// quartileSpread is the contract's steadiness measure: the distance between
// the first and third quartile (exclusive method, as Python's
// statistics.quantiles(v, n=4)) as a share of the median.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	q := func(i int) float64 {
		m := len(c) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(c)-1 {
			j = len(c) - 1
		}
		delta := float64(i*m - j*4)
		return (c[j-1]*(4-delta) + c[j]*delta) / 4
	}
	m := median(c)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
