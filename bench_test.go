// Benchmarks that regenerate each table and figure of the paper's
// evaluation at a reduced scale. Each benchmark reports the headline
// metric of its figure via b.ReportMetric so `go test -bench=.` doubles
// as a quick reproduction run; cmd/s3sim prints the full series at
// larger scales (see EXPERIMENTS.md for a key).
package s3fifo

import (
	"testing"

	"s3fifo/internal/analysis"
	"s3fifo/internal/harness"
	"s3fifo/internal/sim"
	"s3fifo/internal/workload"
)

// benchScale keeps the benchmark corpus small enough for routine runs.
const benchScale = 0.02

// BenchmarkTable1OneHitWonders regenerates Table 1's one-hit-wonder
// columns across the 14 dataset profiles (also the data behind Fig. 3).
func BenchmarkTable1OneHitWonders(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var full, at10 float64
		for _, p := range workload.Profiles {
			tr := p.Generate(0, benchScale)
			st := analysis.Stats(tr, 3, 7)
			full += st.OneHitFull
			at10 += st.OneHit10
		}
		n := float64(len(workload.Profiles))
		b.ReportMetric(full/n, "mean-ohw-full")
		b.ReportMetric(at10/n, "mean-ohw-10pct")
	}
}

// BenchmarkFigure2OneHitWonderCurve regenerates the Zipf one-hit-wonder
// curve of Fig. 2 (α=1.0) and reports the ratio at 10% sequence length.
func BenchmarkFigure2OneHitWonderCurve(b *testing.B) {
	tr := workload.Generate(workload.Config{Objects: 50_000, Requests: 400_000, Alpha: 1.0}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := analysis.Curve(tr, []float64{0.01, 0.1, 1.0}, 5, 3)
		b.ReportMetric(pts[1].Ratio, "ohw@10pct")
	}
}

// BenchmarkFigure4FrequencyAtEviction regenerates Fig. 4 and reports the
// share of LRU-evicted objects that were never reused (MSR-like trace).
func BenchmarkFigure4FrequencyAtEviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Trace == "msr" && r.Algorithm == "lru" {
				b.ReportMetric(r.FreqShare[0], "msr-lru-freq0")
			}
		}
	}
}

// BenchmarkFigure6MissRatioReduction regenerates Fig. 6 on the reduced
// corpus and reports S3-FIFO's mean and P90 miss-ratio reduction vs FIFO
// at the large cache size.
func BenchmarkFigure6MissRatioReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := harness.RunEfficiency(harness.EfficiencyConfig{
			Scale:     benchScale,
			SizeFracs: []float64{0.10},
			Algorithms: []string{
				"fifo", "lru", "clock", "arc", "lirs", "tinylfu", "2q", "s3fifo",
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range harness.Fig6Summaries(results, 0.10) {
			if s.Algorithm == "s3fifo" {
				b.ReportMetric(s.Summary.Mean, "s3fifo-mean-reduction")
				b.ReportMetric(s.Summary.P90, "s3fifo-p90-reduction")
			}
		}
	}
}

// BenchmarkFigure7DatasetWinners regenerates Fig. 7's per-dataset means
// and reports how many of the 14 datasets S3-FIFO wins.
func BenchmarkFigure7DatasetWinners(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := harness.RunEfficiency(harness.EfficiencyConfig{
			Scale:      benchScale,
			SizeFracs:  []float64{0.10},
			Algorithms: []string{"fifo", "lru", "arc", "tinylfu", "s3fifo"},
		})
		if err != nil {
			b.Fatal(err)
		}
		per := harness.Fig7PerDataset(results, 0.10)
		_, counts := harness.BestPerDataset(per)
		b.ReportMetric(float64(counts["s3fifo"]), "s3fifo-dataset-wins")
		b.ReportMetric(float64(len(per)), "datasets")
	}
}

// BenchmarkFigure8Throughput regenerates Fig. 8 at a reduced op count and
// reports S3-FIFO's speedup over optimized LRU at the highest measured
// thread count (1 on a single-core runner; the scaling claim needs cores).
func BenchmarkFigure8Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig8(harness.Fig8Config{
			Objects: 50_000, OpsPerThread: 300_000,
			Caches: []string{"lru-optimized", "s3fifo"},
		})
		if err != nil {
			b.Fatal(err)
		}
		best := map[string]float64{}
		maxThreads := 0
		for _, r := range rows {
			if r.Threads > maxThreads {
				maxThreads = r.Threads
			}
		}
		for _, r := range rows {
			if r.Threads == maxThreads {
				best[r.Cache] = r.Throughput()
			}
		}
		if best["lru-optimized"] > 0 {
			b.ReportMetric(best["s3fifo"]/best["lru-optimized"], "s3fifo-vs-lru-speedup")
		}
		b.ReportMetric(float64(maxThreads), "threads")
	}
}

// BenchmarkFigure9FlashAdmission regenerates Fig. 9 and reports the
// S3-FIFO filter's write reduction vs no admission on the Wikimedia-like
// trace (1% DRAM).
func BenchmarkFigure9FlashAdmission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig9(0.05)
		if err != nil {
			b.Fatal(err)
		}
		var fifoWrites, s3Writes, s3Miss float64
		for _, r := range rows {
			switch {
			case r.Policy == "wiki_cdn/fifo":
				fifoWrites = r.NormalizedWrites()
			case r.Policy == "wiki_cdn/s3fifo" && r.DRAMFrac == 0.01:
				s3Writes = r.NormalizedWrites()
				s3Miss = r.MissRatio()
			}
		}
		if fifoWrites > 0 {
			b.ReportMetric(s3Writes/fifoWrites, "s3fifo-write-share")
		}
		b.ReportMetric(s3Miss, "s3fifo-missratio")
	}
}

// BenchmarkFigure10Table2Demotion regenerates Fig. 10 / Table 2 and
// reports S3-FIFO's demotion speed and precision at the default 10% S on
// the Twitter-like trace, large cache.
func BenchmarkFigure10Table2Demotion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.Fig10(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Trace == "twitter" && r.Algorithm == "s3fifo" && r.Ratio == 0.10 && r.SizeFrac == 0.10 {
				b.ReportMetric(r.Speed, "demotion-speed")
				b.ReportMetric(r.Precision, "demotion-precision")
			}
		}
	}
}

// BenchmarkFigure11SmallQueueSweep regenerates Fig. 11 and reports the
// spread between the best and worst small-queue size by mean reduction.
func BenchmarkFigure11SmallQueueSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.Fig11(0.01, 0)
		if err != nil {
			b.Fatal(err)
		}
		sums := out[0.10]
		if len(sums) == 0 {
			b.Fatal("no summaries")
		}
		b.ReportMetric(sums[0].Summary.Mean, "best-ratio-mean")
		b.ReportMetric(sums[len(sums)-1].Summary.Mean, "worst-ratio-mean")
	}
}

// BenchmarkAdaptiveS3FIFOD regenerates the §6.2.2 comparison.
func BenchmarkAdaptiveS3FIFOD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.AdaptiveComparison(0.01, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range out[0.10] {
			b.ReportMetric(s.Summary.Mean, s.Algorithm+"-mean")
		}
	}
}

// BenchmarkAblationQueueType regenerates the §6.3 queue-type ablation.
func BenchmarkAblationQueueType(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.AblationComparison(0.01, 0)
		if err != nil {
			b.Fatal(err)
		}
		var static, lruBoth float64
		for _, s := range out[0.10] {
			switch s.Algorithm {
			case "s3fifo":
				static = s.Summary.Mean
			case "s3fifo-lru-both":
				lruBoth = s.Summary.Mean
			}
		}
		b.ReportMetric(static, "fifo-queues-mean")
		b.ReportMetric(lruBoth, "lru-queues-mean")
	}
}

// BenchmarkDesignAblation sweeps S3-FIFO's move threshold and ghost size
// (the design choices DESIGN.md calls out beyond the paper's ablations).
func BenchmarkDesignAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.DesignAblation(0.01, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range out[0.10] {
			switch s.Algorithm {
			case "s3fifo-t1", "s3fifo-g0.1", "s3fifo-g2":
				b.ReportMetric(s.Summary.Mean, s.Algorithm+"-mean")
			}
		}
	}
}

// BenchmarkByteMissRatio regenerates the §5.2.3 byte-miss-ratio variant
// on a subset of algorithms.
func BenchmarkByteMissRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := harness.RunEfficiency(harness.EfficiencyConfig{
			Scale: 0.01, SizeFracs: []float64{0.10}, ByteMode: true,
			Algorithms: []string{"fifo", "lru", "s3fifo"},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range harness.Fig6Summaries(results, 0.10) {
			if s.Algorithm == "s3fifo" {
				b.ReportMetric(s.Summary.Mean, "s3fifo-byte-reduction")
			}
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (requests per
// second through S3-FIFO), the equivalent of libCacheSim's headline
// number.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr := sim.Unitize(workload.Generate(workload.Config{
		Objects: 100_000, Requests: 1_000_000, Alpha: 1.0,
	}, 1))
	b.SetBytes(int64(len(tr)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := sim.NewPolicy("s3fifo", 10_000, tr)
		if err != nil {
			b.Fatal(err)
		}
		res := sim.Run(p, tr)
		b.ReportMetric(res.MissRatio(), "missratio")
	}
}
