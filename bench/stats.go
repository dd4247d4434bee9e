package main

import (
	"math"
	"sort"
)

// percentile returns the q-th percentile (0 < q < 1) of sorted exact
// samples, and false when fewer than ten samples lie beyond it: a tail
// read off a handful of points is noise, not a percentile.
func percentile(sorted []int64, q float64) (int64, bool) {
	n := len(sorted)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if n == 0 || n-1-i < 10 {
		return 0, false
	}
	return sorted[i], true
}

// windows is how many equal stretches a phase is cut into. A rate or a
// percentile is taken in each and their median reported, so one disturbed
// second (a neighbour's burst, a GC cycle landing badly) moves a sixth of
// the windows instead of the whole figure.
const windows = 6

// windowed returns the median over the phase's windows of the q-th
// percentile, in the samples' unit. parts holds each client's samples in
// the order they were taken; a client's w-th fifth is its share of window
// w. ok is false when a window has too few samples to carry the percentile.
func windowed(parts [][]int64, q float64) (float64, bool) {
	var per []float64
	for w := 0; w < windows; w++ {
		chunk := make([][]int64, len(parts))
		for i, p := range parts {
			chunk[i] = p[len(p)*w/windows : len(p)*(w+1)/windows]
		}
		v, ok := percentile(merged(chunk), q)
		if !ok {
			return 0, false
		}
		per = append(per, float64(v))
	}
	return median(per), true
}

func merged(parts [][]int64) []int64 {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quartiles are Python's statistics.quantiles(values, n=4), the method the
// driver judges spreads by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	m := median(values)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
