package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted data by
// nearest rank: the smallest value with at least p% of the data at or
// below it. It returns 0 for no data.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps float rounding (99.9/100*1000 = 999.0000000000001)
	// from moving the rank up one.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// supportedPercentile returns the highest of the usual reporting
// percentiles that leaves at least ten of n samples beyond it — the
// highest one n can support — or 0 when not even the median can.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9, 99.99} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quartiles returns the three cut points that split data into four equal
// groups, computed as Python's statistics.quantiles(data, n=4) does with
// its default exclusive method, so numbers printed here and numbers an
// analysis script computes over the same runs agree.
func quartiles(data []float64) (q1, median, q3 float64) {
	d := slices.Clone(data)
	slices.Sort(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of data (the mean of the two middle
// values for an even count).
func median(data []float64) float64 {
	_, m, _ := quartiles(data)
	return m
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
