package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); !almostEqual(got, 2.5) {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {10, 1.4}, {90, 4.6},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v", got)
	}
	if got := Percentile([]float64{7}, 33); got != 7 {
		t.Errorf("Percentile(single) = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMissRatioReduction(t *testing.T) {
	cases := []struct {
		fifo, algo, want float64
	}{
		{0.5, 0.25, 0.5},  // algorithm halves the miss ratio
		{0.5, 0.5, 0},     // tie
		{0.25, 0.5, -0.5}, // algorithm doubles the miss ratio
		{0.5, 0, 1},       // perfect
		{0, 0, 0},         // degenerate
		{0, 0.5, -1},      // fifo perfect, algo not
	}
	for _, c := range cases {
		if got := MissRatioReduction(c.fifo, c.algo); !almostEqual(got, c.want) {
			t.Errorf("MissRatioReduction(%v,%v) = %v, want %v", c.fifo, c.algo, got, c.want)
		}
	}
}

// Property: the reduction metric is always within [-1, 1].
func TestMissRatioReductionBounded(t *testing.T) {
	f := func(a, b float64) bool {
		fifo := math.Abs(math.Mod(a, 1))
		algo := math.Abs(math.Mod(b, 1))
		r := MissRatioReduction(fifo, algo)
		return r >= -1-1e-12 && r <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sign agrees with which algorithm won.
func TestMissRatioReductionSign(t *testing.T) {
	f := func(a, b float64) bool {
		fifo := math.Abs(math.Mod(a, 1)) + 0.01
		algo := math.Abs(math.Mod(b, 1)) + 0.01
		r := MissRatioReduction(fifo, algo)
		switch {
		case algo < fifo:
			return r > 0
		case algo > fifo:
			return r < 0
		default:
			return r == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := Summarize(xs)
	if s.N != 10 || !almostEqual(s.Mean, 5.5) || !almostEqual(s.P50, 5.5) {
		t.Errorf("Summarize = %+v", s)
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 0, 1, 2, 3, 99, -5} {
		h.Observe(v)
	}
	if h.total != 7 {
		t.Errorf("total = %d, want 7", h.total)
	}
	// -5 clamps to bucket 0, 99 clamps to overflow (bucket 4).
	if h.Count(0) != 3 {
		t.Errorf("Count(0) = %d, want 3", h.Count(0))
	}
	if h.Count(4) != 1 {
		t.Errorf("overflow Count = %d, want 1", h.Count(4))
	}
	if h.Count(-1) != 0 || h.Count(100) != 0 {
		t.Error("out-of-range Count should be 0")
	}
	if !almostEqual(h.Fraction(0), 3.0/7) {
		t.Errorf("Fraction(0) = %v", h.Fraction(0))
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0) // clamps to 1 bucket + overflow
	if h.Fraction(0) != 0 {
		t.Error("empty histogram fractions should be 0")
	}
}
