// Package workload generates the synthetic request streams that substitute
// for the paper's 6,594 production traces (see DESIGN.md §4). It provides:
//
//   - a Zipf sampler under the independent reference model (IRM) for any
//     skew α >= 0, built on Walker's alias method for O(1) sampling;
//   - scan, loop, temporal-locality, and delete mixers;
//   - an adversarial "two-hit" pattern (§5.2 of the paper);
//   - 14 dataset profiles that mimic the skew, footprint, scan mix, and
//     object-size statistics reported in Table 1.
package workload

import (
	"math"
	"math/rand"
)

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^alpha using Walker's alias method: O(n) setup, O(1) per
// sample. alpha = 0 degenerates to uniform. Rank 0 is the most popular
// object.
type Zipf struct {
	prob  []float64
	alias []int32
	rng   *rand.Rand
}

// NewZipf builds a sampler over n ranks with skew alpha using rng.
func NewZipf(rng *rand.Rand, alpha float64, n int) *Zipf {
	if n < 1 {
		n = 1
	}
	weights := make([]float64, n)
	var total float64
	for i := range weights {
		w := math.Pow(float64(i+1), -alpha)
		weights[i] = w
		total += w
	}
	z := &Zipf{
		prob:  make([]float64, n),
		alias: make([]int32, n),
		rng:   rng,
	}
	// Walker/Vose alias construction.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		z.prob[s] = scaled[s]
		z.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		z.prob[i] = 1
	}
	for _, i := range small {
		z.prob[i] = 1 // numerical leftovers
	}
	return z
}

// Sample returns a rank in [0, n).
func (z *Zipf) Sample() int {
	col := z.rng.Intn(len(z.prob))
	if z.rng.Float64() < z.prob[col] {
		return col
	}
	return int(z.alias[col])
}
