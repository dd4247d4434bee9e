// Package harness drives the paper's evaluation end to end: it expands
// the synthetic corpus, fans simulations out over a bounded pool of
// goroutines, and aggregates the figures' series. Both `s3sim fig` and
// the repository-level benchmarks are thin wrappers around this package.
// The per-experiment index in DESIGN.md maps each figure and table to the
// function here that regenerates it.
package harness

import (
	"fmt"
	"runtime"
	"sort"

	"s3fifo/internal/sim"
	"s3fifo/internal/stats"
	"s3fifo/internal/workload"
)

// DefaultAlgorithms is the Fig. 6/7 comparison set: the paper's 12+
// state-of-the-art baselines plus S3-FIFO. "fifo" must be present — it is
// the reduction baseline.
var DefaultAlgorithms = []string{
	"fifo", "lru", "clock", "sfifo", "slru", "2q", "arc", "lirs",
	"tinylfu", "tinylfu-0.1", "lru-2", "lecar", "cacheus", "lhd",
	"b-lru", "fifo-merge", "sieve", "clock-pro", "eelru", "mq", "s3fifo",
}

// MinCacheObjects is the skip rule for small caches. The paper skips
// traces where the cache would hold under 1000 objects (§5.1.2); our
// downscaled corpus uses a proportionally smaller floor.
const MinCacheObjects = 100

// EfficiencyResult holds the miss ratios of every algorithm on one corpus
// trace at one cache size.
type EfficiencyResult struct {
	Trace     string
	Dataset   string
	SizeFrac  float64
	CacheSize uint64
	// MissRatio maps the *requested* algorithm name to its miss ratio.
	MissRatio map[string]float64
}

// EfficiencyConfig parameterizes RunEfficiency.
type EfficiencyConfig struct {
	// Scale shrinks the corpus traces (1.0 = canonical profiles).
	Scale float64
	// SizeFracs are cache sizes as fractions of each trace's footprint.
	SizeFracs []float64
	// Algorithms to run (DefaultAlgorithms when empty). "fifo" is added
	// if missing.
	Algorithms []string
	// ByteMode keeps object sizes and measures byte miss ratios with
	// byte-based cache sizes (§5.2.3); otherwise sizes are unit.
	ByteMode bool
	// Workers bounds how many simulations run at once (default NumCPU).
	Workers int
	// OnProgress, when set, is called on RunEfficiency's goroutine after
	// each (trace, size) task with the number done so far and the total.
	OnProgress func(done, total int)
}

func (c EfficiencyConfig) withDefaults() EfficiencyConfig {
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	if len(c.SizeFracs) == 0 {
		c.SizeFracs = []float64{0.10, 0.01}
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = DefaultAlgorithms
	}
	hasFIFO := false
	for _, a := range c.Algorithms {
		if a == "fifo" {
			hasFIFO = true
		}
	}
	if !hasFIFO {
		c.Algorithms = append([]string{"fifo"}, c.Algorithms...)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	return c
}

// RunEfficiency replays the corpus through every algorithm at every cache
// size. One task covers one (trace, size) pair so the generated trace is
// shared across algorithms. Tasks run on cfg.Workers goroutines and their
// results merge in task-ID order ("trace@size"), so sums over them do not
// depend on scheduling. A simulation is a pure function of its inputs:
// one that fails is a bug, and fails the run.
func RunEfficiency(cfg EfficiencyConfig) ([]EfficiencyResult, error) {
	cfg = cfg.withDefaults()
	type task struct {
		id   string
		spec workload.TraceSpec
		frac float64
	}
	var tasks []task
	for _, spec := range workload.Corpus(cfg.Scale) {
		for _, frac := range cfg.SizeFracs {
			tasks = append(tasks, task{fmt.Sprintf("%s@%g", spec.Name(), frac), spec, frac})
		}
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].id < tasks[j].id })

	results := make([]EfficiencyResult, len(tasks))
	errs := make([]error, len(tasks))
	next := make(chan int, len(tasks))
	for i := range tasks {
		next <- i
	}
	close(next)
	finished := make(chan struct{})
	for range min(cfg.Workers, len(tasks)) {
		go func() {
			for i := range next {
				results[i], errs[i] = runOneTrace(tasks[i].spec, tasks[i].frac, cfg)
				finished <- struct{}{}
			}
		}()
	}
	for done := 1; done <= len(tasks); done++ {
		<-finished
		if cfg.OnProgress != nil {
			cfg.OnProgress(done, len(tasks))
		}
	}

	out := results[:0]
	for i, r := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("harness: %s: %w", tasks[i].id, errs[i])
		}
		if len(r.MissRatio) > 0 {
			out = append(out, r)
		}
	}
	return out, nil
}

func runOneTrace(spec workload.TraceSpec, frac float64, cfg EfficiencyConfig) (EfficiencyResult, error) {
	tr := spec.Materialize()
	if !cfg.ByteMode {
		tr = sim.Unitize(tr)
	}
	capacity := sim.CacheSize(tr, frac, cfg.ByteMode)
	res := EfficiencyResult{
		Trace:     spec.Name(),
		Dataset:   spec.Profile.Name,
		SizeFrac:  frac,
		CacheSize: capacity,
		MissRatio: map[string]float64{},
	}
	objectCapacity := capacity
	if cfg.ByteMode {
		// Approximate object count for the skip rule.
		mean := tr.FootprintBytes() / uint64(max(tr.UniqueObjects(), 1))
		if mean > 0 {
			objectCapacity = capacity / mean
		}
	}
	if objectCapacity < MinCacheObjects {
		return res, nil // skipped, per the evaluation rule
	}
	for _, name := range cfg.Algorithms {
		p, err := sim.NewPolicy(name, capacity, tr)
		if err != nil {
			return res, err
		}
		r := sim.Run(p, tr)
		if cfg.ByteMode {
			res.MissRatio[name] = r.ByteMissRatio()
		} else {
			res.MissRatio[name] = r.MissRatio()
		}
	}
	return res, nil
}

// Reductions extracts each algorithm's miss-ratio reductions relative to
// FIFO across all results at the given cache size (Fig. 6's underlying
// distribution).
func Reductions(results []EfficiencyResult, sizeFrac float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range results {
		if r.SizeFrac != sizeFrac {
			continue
		}
		fifo, ok := r.MissRatio["fifo"]
		if !ok {
			continue
		}
		for algo, mr := range r.MissRatio {
			if algo == "fifo" {
				continue
			}
			out[algo] = append(out[algo], stats.MissRatioReduction(fifo, mr))
		}
	}
	return out
}

// Fig6Summaries summarizes the reduction distributions (the percentile
// curves of Fig. 6), sorted by mean reduction, best first.
func Fig6Summaries(results []EfficiencyResult, sizeFrac float64) []AlgoSummary {
	red := Reductions(results, sizeFrac)
	out := make([]AlgoSummary, 0, len(red))
	for algo, xs := range red {
		out = append(out, AlgoSummary{Algorithm: algo, Summary: stats.Summarize(xs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Summary.Mean > out[j].Summary.Mean })
	return out
}

// AlgoSummary pairs an algorithm with its reduction percentile summary.
type AlgoSummary struct {
	Algorithm string
	Summary   stats.Summary
}

// Fig7PerDataset computes each algorithm's mean reduction per dataset at
// the given cache size, plus the per-dataset winner.
func Fig7PerDataset(results []EfficiencyResult, sizeFrac float64) map[string]map[string]float64 {
	acc := map[string]map[string][]float64{}
	for _, r := range results {
		if r.SizeFrac != sizeFrac {
			continue
		}
		fifo, ok := r.MissRatio["fifo"]
		if !ok {
			continue
		}
		if acc[r.Dataset] == nil {
			acc[r.Dataset] = map[string][]float64{}
		}
		for algo, mr := range r.MissRatio {
			if algo == "fifo" {
				continue
			}
			acc[r.Dataset][algo] = append(acc[r.Dataset][algo], stats.MissRatioReduction(fifo, mr))
		}
	}
	out := map[string]map[string]float64{}
	for ds, algos := range acc {
		out[ds] = map[string]float64{}
		for algo, xs := range algos {
			out[ds][algo] = stats.Mean(xs)
		}
	}
	return out
}

// BestPerDataset returns the winning algorithm per dataset and the count
// of datasets each algorithm wins (the paper's "best on 10 of 14" claim).
func BestPerDataset(perDataset map[string]map[string]float64) (map[string]string, map[string]int) {
	winners := map[string]string{}
	counts := map[string]int{}
	for ds, algos := range perDataset {
		best, bestVal := "", -2.0
		names := make([]string, 0, len(algos))
		for a := range algos {
			names = append(names, a)
		}
		sort.Strings(names) // deterministic tie-break
		for _, a := range names {
			if v := algos[a]; v > bestVal {
				best, bestVal = a, v
			}
		}
		winners[ds] = best
		counts[best]++
	}
	return winners, counts
}
