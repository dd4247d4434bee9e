package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"s3fifo/internal/trace"
)

func TestZipfBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 1.0, 100)
	if len(z.prob) != 100 {
		t.Fatalf("ranks = %d", len(z.prob))
	}
	for i := 0; i < 10000; i++ {
		s := z.Sample()
		if s < 0 || s >= 100 {
			t.Fatalf("sample %d out of range", s)
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Higher alpha concentrates more mass on rank 0.
	share := func(alpha float64) float64 {
		rng := rand.New(rand.NewSource(2))
		z := NewZipf(rng, alpha, 1000)
		hits := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if z.Sample() == 0 {
				hits++
			}
		}
		return float64(hits) / n
	}
	s0, s1, s2 := share(0), share(0.8), share(1.2)
	if !(s0 < s1 && s1 < s2) {
		t.Errorf("rank-0 share not increasing with alpha: %v %v %v", s0, s1, s2)
	}
	// Uniform case: rank 0 should get ~1/1000 of samples.
	if s0 > 0.01 {
		t.Errorf("alpha=0 rank-0 share = %v, want ~0.001", s0)
	}
}

func TestZipfMatchesAnalyticDistribution(t *testing.T) {
	const n, samples = 10, 200000
	alpha := 1.0
	rng := rand.New(rand.NewSource(3))
	z := NewZipf(rng, alpha, n)
	counts := make([]int, n)
	for i := 0; i < samples; i++ {
		counts[z.Sample()]++
	}
	var norm float64
	for i := 1; i <= n; i++ {
		norm += math.Pow(float64(i), -alpha)
	}
	for i := 0; i < n; i++ {
		want := math.Pow(float64(i+1), -alpha) / norm
		got := float64(counts[i]) / samples
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d: freq %v, want %v", i, got, want)
		}
	}
}

func TestZipfDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	z := NewZipf(rng, 1.0, 0) // clamps to 1
	if z.Sample() != 0 {
		t.Error("single-rank sampler must return 0")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Objects: 1000, Requests: 5000, Alpha: 0.9, ScanFraction: 0.05, TemporalBias: 0.2}
	a := Generate(cfg, 42)
	b := Generate(cfg, 42)
	if !reflect.DeepEqual(a, b) {
		t.Error("same (cfg, seed) must produce identical traces")
	}
	c := Generate(cfg, 43)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should produce different traces")
	}
}

func TestGenerateLength(t *testing.T) {
	f := func(reqs uint16, objs uint16) bool {
		cfg := Config{Objects: int(objs%2000) + 1, Requests: int(reqs%5000) + 1, Alpha: 0.8, ScanFraction: 0.1}
		return len(Generate(cfg, 7)) == cfg.Requests
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestScanIDsDisjointFromZipfIDs(t *testing.T) {
	cfg := Config{Objects: 100, Requests: 20000, Alpha: 0.8, ScanFraction: 0.3, LoopFraction: 0.1}
	tr := Generate(cfg, 1)
	sawScan := false
	for _, r := range tr {
		if r.ID >= scanIDBase {
			sawScan = true
		} else if r.ID >= 100 {
			t.Fatalf("zipf-space ID %d out of range", r.ID)
		}
	}
	if !sawScan {
		t.Error("expected scan requests with ScanFraction=0.3")
	}
}

func TestStableObjectSizes(t *testing.T) {
	cfg := Config{Objects: 50, Requests: 5000, Alpha: 0.8, MeanSize: 4096, SizeSigma: 1.2}
	tr := Generate(cfg, 9)
	sizes := map[uint64]uint32{}
	for _, r := range tr {
		if prev, ok := sizes[r.ID]; ok && prev != r.Size {
			t.Fatalf("object %d saw sizes %d and %d", r.ID, prev, r.Size)
		}
		sizes[r.ID] = r.Size
		if r.Size == 0 {
			t.Fatal("zero size generated")
		}
	}
}

func TestUnitSizeDefault(t *testing.T) {
	tr := Generate(Config{Objects: 10, Requests: 100, Alpha: 0.5}, 3)
	for _, r := range tr {
		if r.Size != 1 {
			t.Fatalf("unit-size trace has size %d", r.Size)
		}
	}
}

func TestDeleteFraction(t *testing.T) {
	cfg := Config{Objects: 100, Requests: 50000, Alpha: 0.9, DeleteFraction: 0.1}
	tr := Generate(cfg, 5)
	deletes := 0
	for _, r := range tr {
		if r.Op == trace.OpDelete {
			deletes++
		}
	}
	frac := float64(deletes) / float64(len(tr))
	if frac < 0.05 || frac > 0.15 {
		t.Errorf("delete fraction = %v, want ~0.1", frac)
	}
}

func TestTwoHitPattern(t *testing.T) {
	cfg := Config{Requests: 10000, TwoHit: true, TwoHitGap: 100, Objects: 1}
	tr := Generate(cfg, 1)
	if len(tr) != 10000 {
		t.Fatalf("len = %d", len(tr))
	}
	first := map[uint64]int{}
	counts := map[uint64]int{}
	for i, r := range tr {
		counts[r.ID]++
		if counts[r.ID] == 1 {
			first[r.ID] = i
		} else if counts[r.ID] == 2 {
			gap := i - first[r.ID]
			if gap < 100 {
				t.Fatalf("object %d re-accessed after %d < gap", r.ID, gap)
			}
		}
	}
	for id, c := range counts {
		if c > 2 {
			t.Fatalf("object %d accessed %d times", id, c)
		}
	}
	// Most objects (all but the trailing in-flight window) appear twice.
	twice := 0
	for _, c := range counts {
		if c == 2 {
			twice++
		}
	}
	if float64(twice)/float64(len(counts)) < 0.9 {
		t.Errorf("only %d/%d objects accessed twice", twice, len(counts))
	}
}

func TestTemporalBiasIncreasesShortReuse(t *testing.T) {
	reuseShare := func(bias float64) float64 {
		cfg := Config{Objects: 50_000, Requests: 100_000, Alpha: 0.6, TemporalBias: bias}
		tr := Generate(cfg, 11)
		last := map[uint64]int{}
		short := 0
		for i, r := range tr {
			if j, ok := last[r.ID]; ok && i-j < 100 {
				short++
			}
			last[r.ID] = i
		}
		return float64(short) / float64(len(tr))
	}
	if a, b := reuseShare(0), reuseShare(0.5); b <= a {
		t.Errorf("temporal bias did not increase short reuse: %v vs %v", a, b)
	}
}

func TestProfiles(t *testing.T) {
	if len(Profiles) != 14 {
		t.Fatalf("got %d profiles, want 14 (Table 1)", len(Profiles))
	}
	seen := map[string]bool{}
	for _, p := range Profiles {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		switch p.CacheType {
		case "block", "kv", "object":
		default:
			t.Errorf("profile %q has bad cache type %q", p.Name, p.CacheType)
		}
		if p.Traces < 1 {
			t.Errorf("profile %q contributes no traces", p.Name)
		}
	}
	if _, ok := ProfileByName("msr"); !ok {
		t.Error("ProfileByName(msr) not found")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("ProfileByName(nope) should be false")
	}
}

func TestProfileGenerateScaled(t *testing.T) {
	p, _ := ProfileByName("twitter")
	tr := p.Generate(0, 0.01)
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	if len(tr) > p.Base.Requests/50 {
		t.Errorf("scale 0.01 trace has %d requests", len(tr))
	}
	// Deterministic per variant.
	tr2 := p.Generate(0, 0.01)
	if !reflect.DeepEqual(tr, tr2) {
		t.Error("profile generation not deterministic")
	}
	if reflect.DeepEqual(tr, p.Generate(1, 0.01)) {
		t.Error("variants should differ")
	}
}

func TestCorpus(t *testing.T) {
	specs := Corpus(0.01)
	want := 0
	for _, p := range Profiles {
		want += p.Traces
	}
	if len(specs) != want {
		t.Fatalf("corpus size = %d, want %d", len(specs), want)
	}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name()] {
			t.Errorf("duplicate spec name %q", s.Name())
		}
		names[s.Name()] = true
	}
	tr := specs[0].Materialize()
	if len(tr) == 0 {
		t.Error("materialized trace empty")
	}
}

func BenchmarkZipfSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 1.0, 1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Sample()
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := Config{Objects: 100_000, Requests: 1_000_000, Alpha: 1.0, TemporalBias: 0.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(cfg, int64(i))
	}
}
