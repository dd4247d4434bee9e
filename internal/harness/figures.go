package harness

import (
	"fmt"
	"runtime"

	"s3fifo/internal/concurrent"
	"s3fifo/internal/flashsim"
	"s3fifo/internal/sim"
	"s3fifo/internal/trace"
	"s3fifo/internal/workload"
)

// profileTrace materializes one unit-size trace of the named profile.
func profileTrace(name string, scale float64) (trace.Trace, error) {
	p, ok := workload.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("harness: unknown profile %q", name)
	}
	return sim.Unitize(p.Generate(0, scale)), nil
}

// Fig4Result is one frequency-at-eviction histogram.
type Fig4Result struct {
	Trace     string
	Algorithm string
	// FreqShare[i] is the fraction of evicted objects with i accesses
	// after insertion; the last bucket aggregates everything beyond.
	FreqShare []float64
}

// Fig4 measures the frequency of objects at eviction for LRU and Belady
// on the Twitter-like and MSR-like profiles at 10% cache size.
func Fig4(scale float64) ([]Fig4Result, error) {
	var out []Fig4Result
	const buckets = 8
	for _, profile := range []string{"twitter", "msr"} {
		tr, err := profileTrace(profile, scale)
		if err != nil {
			return nil, err
		}
		capacity := sim.CacheSize(tr, 0.10, false)
		for _, algo := range []string{"lru", "belady"} {
			p, err := sim.NewPolicy(algo, capacity, tr)
			if err != nil {
				return nil, err
			}
			h := sim.FrequencyAtEviction(p, tr, buckets)
			shares := make([]float64, buckets+1)
			for i := range shares {
				shares[i] = h.Fraction(i)
			}
			out = append(out, Fig4Result{Trace: profile, Algorithm: algo, FreqShare: shares})
		}
	}
	return out, nil
}

// Fig8Config parameterizes the throughput scaling experiment.
type Fig8Config struct {
	// Objects is the number of distinct keys (default 200k).
	Objects int
	// OpsPerThread per measurement (default 2M).
	OpsPerThread int
	// LargeCache uses a cache of Objects/10 (miss ratio a few %); small
	// uses Objects/100.
	LargeCache bool
	// Caches to measure (default all five).
	Caches []string
}

func (c Fig8Config) withDefaults() Fig8Config {
	if c.Objects <= 0 {
		c.Objects = 200_000
	}
	if c.OpsPerThread <= 0 {
		c.OpsPerThread = 2_000_000
	}
	if len(c.Caches) == 0 {
		c.Caches = concurrent.Names()
	}
	return c
}

// fig8Threads is the thread sweep: 1, 2, 4, 8, 16 capped at NumCPU. Thread
// counts above GOMAXPROCS would measure oversubscription, not scaling.
func fig8Threads() []int {
	threads := []int{1}
	for t := 2; t <= 16 && t <= runtime.NumCPU(); t *= 2 {
		threads = append(threads, t)
	}
	return threads
}

// Fig8 runs the closed-loop throughput scaling measurement (§5.3) on a
// Zipf α=1.0 workload and returns one ReplayResult per (cache, threads).
func Fig8(cfg Fig8Config) ([]concurrent.ReplayResult, error) {
	cfg = cfg.withDefaults()
	w := concurrent.NewZipfWorkload(cfg.Objects, 4*cfg.Objects, 1.0, 64, 42)
	capacity := cfg.Objects / 100
	if cfg.LargeCache {
		capacity = cfg.Objects / 10
	}
	var out []concurrent.ReplayResult
	for _, name := range cfg.Caches {
		for _, threads := range fig8Threads() {
			c, err := concurrent.New(name, capacity)
			if err != nil {
				return nil, err
			}
			concurrent.Warm(c, w)
			out = append(out, concurrent.Replay(c, w, threads, cfg.OpsPerThread/threads))
		}
	}
	return out, nil
}

// Fig9 runs the flash-admission experiment on the Wikimedia-like and
// TencentPhoto-like CDN profiles: miss ratio and normalized write bytes
// for no-admission FIFO, probabilistic, Flashield-like, and the S3-FIFO
// small-queue filter at DRAM sizes 0.1%, 1%, and 10% of the cache.
func Fig9(scale float64) ([]flashsim.Result, error) {
	var out []flashsim.Result
	for _, profile := range []string{"wiki_cdn", "tencent_photo"} {
		p, ok := workload.ProfileByName(profile)
		if !ok {
			return nil, fmt.Errorf("harness: unknown profile %q", profile)
		}
		tr := p.Generate(0, scale)
		total := uint64(float64(tr.FootprintBytes()) * 0.10)
		for _, pol := range []string{"fifo", "prob", "flashield", "s3fifo"} {
			fracs := []float64{0.001, 0.01, 0.10}
			if pol == "fifo" {
				fracs = []float64{0}
			}
			for _, df := range fracs {
				res, err := flashsim.Run(tr, flashsim.Config{
					TotalBytes: total, DRAMFrac: df, Policy: pol, Seed: 1,
				})
				if err != nil {
					return nil, err
				}
				res.Policy = profile + "/" + res.Policy
				out = append(out, res)
			}
		}
	}
	return out, nil
}

// Fig10Row is one point of the demotion speed/precision study, which is
// also one cell of Table 2.
type Fig10Row struct {
	Trace     string
	SizeFrac  float64
	Algorithm string
	Ratio     float64 // probationary size as a fraction of the cache (0 = n/a)
	sim.DemotionResult
}

// SmallQueueRatios is the S-size sweep of Fig. 10 and Table 2.
var SmallQueueRatios = []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.40}

// Fig10 measures quick-demotion speed and precision for ARC, TinyLFU, and
// S3-FIFO (the latter two across S sizes) plus the LRU miss-ratio
// baseline, on the Twitter-like and MSR-like profiles at both cache
// sizes. The returned rows regenerate Fig. 10 and Table 2.
func Fig10(scale float64) ([]Fig10Row, []sim.Result, error) {
	var rows []Fig10Row
	var lruRows []sim.Result
	for _, profile := range []string{"twitter", "msr"} {
		tr, err := profileTrace(profile, scale)
		if err != nil {
			return nil, nil, err
		}
		for _, frac := range []float64{0.10, 0.01} {
			capacity := sim.CacheSize(tr, frac, false)
			if capacity < MinCacheObjects {
				continue
			}
			lruAge := sim.LRUEvictionAge(capacity, tr)
			lru, _ := sim.NewPolicy("lru", capacity, tr)
			lruRes := sim.Run(lru, tr)
			lruRes.Algorithm = fmt.Sprintf("lru/%s@%g", profile, frac)
			lruRows = append(lruRows, lruRes)

			arc, _ := sim.NewPolicy("arc", capacity, tr)
			dr, err := sim.MeasureDemotion(arc, tr, lruAge)
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, Fig10Row{Trace: profile, SizeFrac: frac, Algorithm: "arc", DemotionResult: dr})

			for _, ratio := range SmallQueueRatios {
				for _, algo := range []string{"s3fifo", "tinylfu"} {
					name := fmt.Sprintf("%s-r%g", algo, ratio)
					p, err := sim.NewPolicy(name, capacity, tr)
					if err != nil {
						return nil, nil, err
					}
					dr, err := sim.MeasureDemotion(p, tr, lruAge)
					if err != nil {
						return nil, nil, err
					}
					rows = append(rows, Fig10Row{
						Trace: profile, SizeFrac: frac, Algorithm: algo,
						Ratio: ratio, DemotionResult: dr,
					})
				}
			}
		}
	}
	return rows, lruRows, nil
}

// Fig11 sweeps S3-FIFO's small-queue size over the corpus and returns the
// reduction summaries per ratio at each cache size.
func Fig11(scale float64, workers int) (map[float64][]AlgoSummary, error) {
	algos := []string{"fifo"}
	for _, r := range SmallQueueRatios {
		algos = append(algos, fmt.Sprintf("s3fifo-r%g", r))
	}
	results, err := RunEfficiency(EfficiencyConfig{
		Scale: scale, SizeFracs: []float64{0.10, 0.01}, Algorithms: algos, Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	out := map[float64][]AlgoSummary{}
	for _, frac := range []float64{0.10, 0.01} {
		out[frac] = Fig6Summaries(results, frac)
	}
	return out, nil
}

// AdaptiveComparison runs S3-FIFO vs S3-FIFO-D over the corpus (§6.2.2)
// and returns the reduction summaries.
func AdaptiveComparison(scale float64, workers int) (map[float64][]AlgoSummary, error) {
	return corpusSummaries(scale, workers, "fifo", "s3fifo", "s3fifo-d")
}

// DesignAblation sweeps the two parameters DESIGN.md calls out beyond the
// paper's own ablations: the S-to-M move threshold (Algorithm 1 uses
// freq > 1, i.e. threshold 2) and the ghost queue's size relative to the
// cache (the paper pins |G| = |M|).
func DesignAblation(scale float64, workers int) (map[float64][]AlgoSummary, error) {
	return corpusSummaries(scale, workers,
		"fifo", "s3fifo",
		"s3fifo-t1", "s3fifo-t2", "s3fifo-t3",
		"s3fifo-g0.1", "s3fifo-g0.5", "s3fifo-g0.9", "s3fifo-g2",
	)
}

// AblationComparison runs the §6.3 queue-type ablations over the corpus.
func AblationComparison(scale float64, workers int) (map[float64][]AlgoSummary, error) {
	return corpusSummaries(scale, workers,
		"fifo", "s3fifo", "s3fifo-lru-s", "s3fifo-lru-m",
		"s3fifo-lru-both", "s3fifo-hit-promote", "s3fifo-sieve-m",
	)
}

// corpusSummaries runs algos over the corpus at the large cache size and
// returns their reduction summaries.
func corpusSummaries(scale float64, workers int, algos ...string) (map[float64][]AlgoSummary, error) {
	results, err := RunEfficiency(EfficiencyConfig{
		Scale: scale, SizeFracs: []float64{0.10}, Algorithms: algos, Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	return map[float64][]AlgoSummary{0.10: Fig6Summaries(results, 0.10)}, nil
}
