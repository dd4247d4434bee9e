// Package stats provides the aggregation utilities used when reporting the
// paper's evaluation: percentiles over per-trace results, streaming
// histograms, and the bounded miss-ratio-reduction metric of §5.1.2.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MissRatioReduction computes the bounded reduction metric from §5.1.2:
// (MRfifo-MRalgo)/MRfifo when the algorithm beats FIFO, and
// -(MRalgo-MRfifo)/MRalgo otherwise, bounding the value to [-1, 1] and
// avoiding outlier blowups when FIFO's miss ratio is tiny.
func MissRatioReduction(mrFIFO, mrAlgo float64) float64 {
	switch {
	case mrFIFO <= 0 && mrAlgo <= 0:
		return 0
	case mrAlgo <= mrFIFO:
		if mrFIFO == 0 {
			return 0
		}
		return (mrFIFO - mrAlgo) / mrFIFO
	default:
		return -(mrAlgo - mrFIFO) / mrAlgo
	}
}

// Summary holds the percentile summary printed for Fig. 6/7/11-style plots.
type Summary struct {
	N                       int
	Mean                    float64
	P10, P25, P50, P75, P90 float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		P10:  Percentile(xs, 10),
		P25:  Percentile(xs, 25),
		P50:  Percentile(xs, 50),
		P75:  Percentile(xs, 75),
		P90:  Percentile(xs, 90),
	}
}

// String renders the summary as a fixed-width row.
func (s Summary) String() string {
	return fmt.Sprintf("n=%4d mean=%+.3f p10=%+.3f p25=%+.3f p50=%+.3f p75=%+.3f p90=%+.3f",
		s.N, s.Mean, s.P10, s.P25, s.P50, s.P75, s.P90)
}

// Histogram is a fixed-bucket histogram over non-negative integers with an
// overflow bucket, used for frequency-at-eviction (Fig. 4) and eviction-age
// distributions.
type Histogram struct {
	buckets []uint64
	total   uint64
}

// NewHistogram returns a histogram with buckets [0, n) plus overflow.
func NewHistogram(n int) *Histogram {
	if n < 1 {
		n = 1
	}
	return &Histogram{buckets: make([]uint64, n+1)}
}

// Observe records value v, clamping into the overflow bucket.
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets)-1 {
		v = len(h.buckets) - 1
	}
	h.buckets[v]++
	h.total++
}

// Count returns the number of observations in bucket v (the last bucket is
// overflow).
func (h *Histogram) Count(v int) uint64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// Fraction returns bucket v's share of all observations.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}
