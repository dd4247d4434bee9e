package sim

import (
	"math"
	"testing"

	"s3fifo/internal/trace"
	"s3fifo/internal/workload"
)

func TestRunCountsMissesAndBytes(t *testing.T) {
	tr := trace.Trace{
		{ID: 1, Size: 10}, {ID: 1, Size: 10}, {ID: 2, Size: 20}, {ID: 1, Size: 10},
	}
	p, err := NewPolicy("lru", 100, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(p, tr)
	if res.Requests != 4 || res.Misses != 2 {
		t.Errorf("Requests=%d Misses=%d", res.Requests, res.Misses)
	}
	if res.BytesRequested != 50 || res.BytesMissed != 30 {
		t.Errorf("BytesRequested=%d BytesMissed=%d", res.BytesRequested, res.BytesMissed)
	}
	if mr := res.MissRatio(); math.Abs(mr-0.5) > 1e-9 {
		t.Errorf("MissRatio = %v", mr)
	}
	if bmr := res.ByteMissRatio(); math.Abs(bmr-0.6) > 1e-9 {
		t.Errorf("ByteMissRatio = %v", bmr)
	}
	if res.String() == "" {
		t.Error("String empty")
	}
}

func TestRunAppliesDeletes(t *testing.T) {
	tr := trace.Trace{
		{ID: 1, Size: 1}, {ID: 1, Size: 1, Op: trace.OpDelete}, {ID: 1, Size: 1},
	}
	p, _ := NewPolicy("lru", 10, tr)
	res := Run(p, tr)
	// Two Get requests, both misses (second follows a delete).
	if res.Requests != 2 || res.Misses != 2 {
		t.Errorf("Requests=%d Misses=%d, want 2/2", res.Requests, res.Misses)
	}
}

func TestNewPolicyCoversEverything(t *testing.T) {
	tr := trace.Trace{{ID: 1, Size: 1}}
	for _, name := range Algorithms() {
		p, err := NewPolicy(name, 100, tr)
		if err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
			continue
		}
		if p.Capacity() != 100 {
			t.Errorf("%s: capacity not set", name)
		}
	}
	if _, err := NewPolicy("bogus", 10, tr); err == nil {
		t.Error("bogus policy should error")
	}
	names := Algorithms()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Algorithms not sorted/unique: %v", names)
		}
	}
}

func TestCacheSize(t *testing.T) {
	tr := trace.Trace{{ID: 1, Size: 100}, {ID: 2, Size: 300}, {ID: 1, Size: 100}}
	if got := CacheSize(tr, 0.5, false); got != 1 {
		t.Errorf("object mode = %d, want 1", got)
	}
	if got := CacheSize(tr, 0.5, true); got != 200 {
		t.Errorf("byte mode = %d, want 200", got)
	}
}

func TestUnitize(t *testing.T) {
	tr := trace.Trace{{ID: 1, Size: 100}, {ID: 2, Size: 300, Op: trace.OpDelete}}
	u := Unitize(tr)
	if u[0].Size != 1 || u[1].Size != 1 || u[1].Op != trace.OpDelete {
		t.Errorf("Unitize = %v", u)
	}
	if tr[0].Size != 100 {
		t.Error("Unitize mutated input")
	}
}

func TestCompare(t *testing.T) {
	tr := Unitize(workload.Generate(workload.Config{Objects: 1000, Requests: 20000, Alpha: 1.0}, 1))
	var results []Result
	for _, name := range []string{"fifo", "lru", "s3fifo", "belady"} {
		p, err := NewPolicy(name, 100, tr)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, Run(p, tr))
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Algorithm] = r
	}
	// Belady is the lower bound.
	for _, r := range results {
		if r.Misses < byName["belady"].Misses {
			t.Errorf("%s beat belady: %d < %d", r.Algorithm, r.Misses, byName["belady"].Misses)
		}
	}
	// S3-FIFO beats FIFO on a skewed trace.
	if byName["s3fifo"].Misses >= byName["fifo"].Misses {
		t.Errorf("s3fifo (%d) not better than fifo (%d)", byName["s3fifo"].Misses, byName["fifo"].Misses)
	}
	if _, err := NewPolicy("nope", 100, tr); err == nil {
		t.Error("NewPolicy with unknown algorithm should error")
	}
}

func TestFrequencyAtEviction(t *testing.T) {
	// Mostly one-hit wonders: evicted objects should overwhelmingly have
	// frequency 0 (the Fig. 4 shape).
	tr := Unitize(workload.Generate(workload.Config{Objects: 50000, Requests: 100000, Alpha: 0.3}, 3))
	p, _ := NewPolicy("lru", 1000, tr)
	h := FrequencyAtEviction(p, tr, 8)
	var evicted uint64
	for v := 0; v <= 8; v++ { // buckets 0..7 and the overflow
		evicted += h.Count(v)
	}
	if evicted == 0 {
		t.Fatal("no evictions observed")
	}
	if h.Fraction(0) < 0.5 {
		t.Errorf("freq-0 fraction = %v, want > 0.5 on a one-hit-heavy trace", h.Fraction(0))
	}
}

func TestLRUEvictionAge(t *testing.T) {
	// Sequential unique requests through a size-C LRU evict at age exactly C.
	tr := make(trace.Trace, 1000)
	for i := range tr {
		tr[i] = trace.Request{ID: uint64(i), Size: 1}
	}
	age := LRUEvictionAge(100, tr)
	if math.Abs(age-100) > 1 {
		t.Errorf("LRU eviction age = %v, want ~100", age)
	}
	if got := LRUEvictionAge(10000, tr); got != 0 {
		t.Errorf("no evictions should yield 0, got %v", got)
	}
}

func TestMeasureDemotion(t *testing.T) {
	tr := Unitize(workload.Generate(workload.Config{Objects: 20000, Requests: 200000, Alpha: 1.0}, 7))
	capacity := uint64(2000)
	lruAge := LRUEvictionAge(capacity, tr)
	if lruAge <= 0 {
		t.Fatal("no LRU evictions in setup")
	}
	s3, _ := NewPolicy("s3fifo", capacity, tr)
	res, err := MeasureDemotion(s3, tr, lruAge)
	if err != nil {
		t.Fatal(err)
	}
	if res.Demotions == 0 {
		t.Fatal("no demotions observed")
	}
	// S's residence is ~10% of the cache, so demotion must be much faster
	// than LRU eviction (speed > 1).
	if res.Speed <= 1 {
		t.Errorf("demotion speed = %v, want > 1", res.Speed)
	}
	if res.Precision <= 0 || res.Precision > 1 {
		t.Errorf("precision = %v out of range", res.Precision)
	}
	if res.MissRatio <= 0 || res.MissRatio >= 1 {
		t.Errorf("miss ratio = %v", res.MissRatio)
	}
}

func TestMeasureDemotionSmallerSIsFaster(t *testing.T) {
	// §6.1: reducing S size increases demotion speed monotonically.
	tr := Unitize(workload.Generate(workload.Config{Objects: 20000, Requests: 150000, Alpha: 1.0}, 11))
	capacity := uint64(2000)
	lruAge := LRUEvictionAge(capacity, tr)
	speed := func(ratio float64) float64 {
		res, err := MeasureDemotion(corePolicyWithRatio(capacity, ratio), tr, lruAge)
		if err != nil {
			t.Fatal(err)
		}
		return res.Speed
	}
	s5, s20 := speed(0.05), speed(0.20)
	if s5 <= s20 {
		t.Errorf("speed(S=5%%)=%v should exceed speed(S=20%%)=%v", s5, s20)
	}
}

func TestMeasureDemotionErrorsOnNonTracker(t *testing.T) {
	tr := trace.Trace{{ID: 1, Size: 1}}
	p, _ := NewPolicy("fifo", 10, tr)
	if _, err := MeasureDemotion(p, tr, 1); err == nil {
		t.Error("expected error for non-tracking policy")
	}
}
