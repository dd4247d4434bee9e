package flashsim

import (
	"strings"
	"testing"

	"s3fifo/internal/trace"
	"s3fifo/internal/workload"
)

// cdnTrace builds a Wikimedia-CDN-like trace with object sizes.
func cdnTrace(t testing.TB) trace.Trace {
	t.Helper()
	p, ok := workload.ProfileByName("wiki_cdn")
	if !ok {
		t.Fatal("missing wiki_cdn profile")
	}
	return p.Generate(0, 0.25)
}

func runOne(t testing.TB, tr trace.Trace, policy string, dramFrac float64) Result {
	t.Helper()
	total := uint64(float64(tr.FootprintBytes()) * 0.10) // 10% of footprint in bytes (§5.4)
	res, err := Run(tr, Config{TotalBytes: total, DRAMFrac: dramFrac, Policy: policy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestUnknownPolicy(t *testing.T) {
	if _, err := Run(nil, Config{Policy: "bogus"}); err == nil {
		t.Error("expected error")
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{Policy: "x", Requests: 10, Misses: 5, FlashWrite: 300, UniqueBytes: 100}
	if r.MissRatio() != 0.5 || r.NormalizedWrites() != 3 {
		t.Errorf("accessors: %v %v", r.MissRatio(), r.NormalizedWrites())
	}
	if !strings.Contains(r.String(), "x") {
		t.Error("String missing policy name")
	}
	var zero Result
	if zero.MissRatio() != 0 || zero.NormalizedWrites() != 0 {
		t.Error("zero-value accessors should be 0")
	}
}

func TestAllPoliciesProduceSaneResults(t *testing.T) {
	tr := cdnTrace(t)
	for _, pol := range []string{"fifo", "prob", "flashield", "s3fifo"} {
		res := runOne(t, tr, pol, 0.01)
		if res.Requests == 0 {
			t.Fatalf("%s: no requests", pol)
		}
		if mr := res.MissRatio(); mr <= 0 || mr >= 1 {
			t.Errorf("%s: miss ratio %v", pol, mr)
		}
		if res.FlashWrite == 0 {
			t.Errorf("%s: nothing written to flash", pol)
		}
	}
}

// TestAdmissionReducesWrites: every admission policy must write less than
// write-everything FIFO (Fig. 9's first-order result).
func TestAdmissionReducesWrites(t *testing.T) {
	tr := cdnTrace(t)
	noAdmission := runOne(t, tr, "fifo", 0)
	for _, pol := range []string{"prob", "flashield", "s3fifo"} {
		res := runOne(t, tr, pol, 0.01)
		if res.NormalizedWrites() >= noAdmission.NormalizedWrites() {
			t.Errorf("%s writes %.3f >= no-admission %.3f", pol, res.NormalizedWrites(), noAdmission.NormalizedWrites())
		}
	}
}

// TestSmallFIFOBeatsProbabilistic: the paper's headline for §5.4 — the
// small-FIFO filter reduces writes without the probabilistic filter's
// miss-ratio penalty.
func TestSmallFIFOBeatsProbabilistic(t *testing.T) {
	tr := cdnTrace(t)
	s3 := runOne(t, tr, "s3fifo", 0.01)
	prob := runOne(t, tr, "prob", 0.01)
	if s3.MissRatio() >= prob.MissRatio() {
		t.Errorf("s3fifo miss %.4f should beat prob %.4f", s3.MissRatio(), prob.MissRatio())
	}
	// At a comfortable DRAM size it beats write-everything FIFO on BOTH
	// axes (Fig. 9).
	s3big := runOne(t, tr, "s3fifo", 0.10)
	noAdm := runOne(t, tr, "fifo", 0)
	if s3big.MissRatio() >= noAdm.MissRatio() {
		t.Errorf("s3fifo@10%% miss %.4f should beat no-admission %.4f", s3big.MissRatio(), noAdm.MissRatio())
	}
	if s3big.NormalizedWrites() >= noAdm.NormalizedWrites()/2 {
		t.Errorf("s3fifo@10%% writes %.3f should be far below no-admission %.3f", s3big.NormalizedWrites(), noAdm.NormalizedWrites())
	}
}

// TestSmallFIFOWorksWithSmallDRAM: unlike learned admission, the FIFO
// filter keeps working with a small DRAM tier (1% of the cache here; at
// this downscaled footprint the paper's 0.1% point would leave DRAM
// smaller than a single object — see EXPERIMENTS.md).
func TestSmallFIFOWorksWithSmallDRAM(t *testing.T) {
	tr := cdnTrace(t)
	noAdmission := runOne(t, tr, "fifo", 0)
	s3small := runOne(t, tr, "s3fifo", 0.01)
	if s3small.NormalizedWrites() >= 0.6*noAdmission.NormalizedWrites() {
		t.Errorf("s3fifo@1%% writes %.3f barely below no-admission %.3f",
			s3small.NormalizedWrites(), noAdmission.NormalizedWrites())
	}
	// And its miss ratio stays in the same ballpark as no-admission.
	if s3small.MissRatio() > noAdmission.MissRatio()*1.2 {
		t.Errorf("s3fifo@1%% miss %.4f blew up vs %.4f", s3small.MissRatio(), noAdmission.MissRatio())
	}
}

// TestFlashieldNeedsLargeDRAM: with 10% DRAM the learned filter cuts
// writes effectively; with 0.1% DRAM objects gather no reads before
// eviction and the model cannot separate good admissions, so both its
// writes and miss ratio degrade (Fig. 9's narrative).
func TestFlashieldNeedsLargeDRAM(t *testing.T) {
	tr := cdnTrace(t)
	big := runOne(t, tr, "flashield", 0.10)
	tiny := runOne(t, tr, "flashield", 0.001)
	if tiny.MissRatio() < big.MissRatio() {
		t.Errorf("flashield with tiny DRAM (%.4f) should not beat large DRAM (%.4f)",
			tiny.MissRatio(), big.MissRatio())
	}
	if tiny.NormalizedWrites() < big.NormalizedWrites() {
		t.Errorf("flashield with tiny DRAM writes %.3f should exceed large DRAM %.3f",
			tiny.NormalizedWrites(), big.NormalizedWrites())
	}
}

func TestDeletesAreIgnored(t *testing.T) {
	tr := trace.Trace{
		{ID: 1, Size: 10}, {ID: 1, Size: 10, Op: trace.OpDelete}, {ID: 1, Size: 10},
	}
	res, err := Run(tr, Config{TotalBytes: 1000, DRAMFrac: 0.1, Policy: "s3fifo"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2 {
		t.Errorf("Requests = %d, want 2 (delete skipped)", res.Requests)
	}
}

func BenchmarkFlashSim(b *testing.B) {
	p, _ := workload.ProfileByName("wiki_cdn")
	tr := p.Generate(0, 0.25)
	total := uint64(float64(tr.FootprintBytes()) * 0.10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(tr, Config{TotalBytes: total, DRAMFrac: 0.01, Policy: "s3fifo", Seed: 1})
	}
}

// TestFlashieldIsReproducible: Flashield's trainer is an order-dependent
// SGD, so it must visit the keys it forgets in a fixed order. Trained in
// Go map order, two runs of this case read different results in 40 of 40
// tries; at scale 0.04, 19 of 20, and at 0.03, 8 of 10.
func TestFlashieldIsReproducible(t *testing.T) {
	p, ok := workload.ProfileByName("tencent_photo")
	if !ok {
		t.Fatal("missing tencent_photo profile")
	}
	tr := p.Generate(0, 0.05)
	first := runOne(t, tr, "flashield", 0.10)
	if again := runOne(t, tr, "flashield", 0.10); again != first {
		t.Fatalf("two runs differ:\n%+v\n%+v", first, again)
	}
}
