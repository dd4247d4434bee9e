// Command sweep regenerates the paper's evaluation figures and tables on
// the synthetic corpus:
//
//	sweep -exp fig4        frequency of objects at eviction (Fig. 4)
//	sweep -exp fig6        miss-ratio reduction percentiles (Fig. 6)
//	sweep -exp fig7        per-dataset mean reductions + winners (Fig. 7)
//	sweep -exp byte        byte-miss-ratio variant of fig6 (§5.2.3)
//	sweep -exp fig8        concurrent-cache throughput scaling (Fig. 8)
//	sweep -exp fig9        flash admission: miss ratio and write bytes (Fig. 9)
//	sweep -exp fig10       demotion speed/precision + Table 2 (Fig. 10)
//	sweep -exp fig11       small-queue size sweep (Fig. 11)
//	sweep -exp adaptive    S3-FIFO vs S3-FIFO-D (§6.2.2)
//	sweep -exp ablation    LRU-vs-FIFO queue-type ablation (§6.3)
//	sweep -exp design      move-threshold and ghost-size ablation
//	sweep -exp all         everything above
//
// -scale trades fidelity for time (default 0.1 of the canonical corpus).
// Fig. 8 scales its key space and operation count with it: 0.1 is 200k
// objects and 2M operations per measurement, at 1, 2, 4, 8 and 16 threads
// capped at the CPU count. Simulations fan out over the fault-tolerant
// worker pool; -workers bounds parallelism.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"

	"s3fifo/internal/harness"
)

func main() {
	exp := flag.String("exp", "fig6", "experiment: fig4|fig6|fig7|byte|fig8|fig9|fig10|fig11|adaptive|ablation|design|all")
	scale := flag.Float64("scale", 0.1, "corpus scale factor")
	workers := flag.Int("workers", 0, "worker pool size (0 = NumCPU)")
	verbose := flag.Bool("v", false, "print progress")
	flag.Parse()

	var progress func(done, total int)
	if *verbose {
		progress = func(done, total int) { fmt.Fprintf(os.Stderr, "\r%d/%d", done, total) }
	}

	run := func(name string, f func() error) {
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		fmt.Println()
	}

	all := *exp == "all"
	if all || *exp == "fig4" {
		run("Fig. 4 — frequency of objects at eviction", func() error { return fig4(*scale) })
	}
	if all || *exp == "fig6" || *exp == "fig7" {
		run("Fig. 6/7 — miss-ratio reductions", func() error {
			return fig67(*scale, *workers, false, progress)
		})
	}
	if all || *exp == "byte" {
		run("§5.2.3 — byte miss-ratio reductions", func() error {
			return fig67(*scale, *workers, true, progress)
		})
	}
	if all || *exp == "fig8" {
		run("Fig. 8 — throughput scaling", func() error { return fig8(*scale) })
	}
	if all || *exp == "fig9" {
		run("Fig. 9 — flash admission: miss ratio and normalized write bytes", func() error {
			rows, err := harness.Fig9(*scale)
			for _, r := range rows {
				fmt.Println(r)
			}
			return err
		})
	}
	if all || *exp == "fig10" {
		run("Fig. 10 + Table 2 — quick demotion", func() error { return fig10(*scale) })
	}
	if all || *exp == "fig11" {
		run("Fig. 11 — small queue size sweep", func() error { return fig11(*scale, *workers) })
	}
	if all || *exp == "adaptive" {
		run("§6.2.2 — S3-FIFO vs S3-FIFO-D", func() error {
			printSummaries(harness.AdaptiveComparison(*scale, *workers))
			return nil
		})
	}
	if all || *exp == "ablation" {
		run("§6.3 — queue-type ablation", func() error {
			printSummaries(harness.AblationComparison(*scale, *workers))
			return nil
		})
	}
	if all || *exp == "design" {
		run("design ablation — move threshold & ghost size", func() error {
			printSummaries(harness.DesignAblation(*scale, *workers))
			return nil
		})
	}
}

func fig4(scale float64) error {
	rows, err := harness.Fig4(scale)
	if err != nil {
		return err
	}
	fmt.Println("trace    algorithm  freq:0     1      2      3      4+")
	for _, r := range rows {
		rest := 0.0
		for i := 4; i < len(r.FreqShare); i++ {
			rest += r.FreqShare[i]
		}
		fmt.Printf("%-8s %-9s  %.3f  %.3f  %.3f  %.3f  %.3f\n",
			r.Trace, r.Algorithm, r.FreqShare[0], r.FreqShare[1], r.FreqShare[2], r.FreqShare[3], rest)
	}
	return nil
}

func fig67(scale float64, workers int, byteMode bool, progress func(int, int)) error {
	results := harness.RunEfficiency(harness.EfficiencyConfig{
		Scale: scale, Workers: workers, ByteMode: byteMode, OnProgress: progress,
	})
	if progress != nil {
		fmt.Fprintln(os.Stderr)
	}
	for _, frac := range []float64{0.10, 0.01} {
		fmt.Printf("\n-- cache size = %g of footprint: miss-ratio reduction vs FIFO --\n", frac)
		for _, s := range harness.Fig6Summaries(results, frac) {
			fmt.Printf("%-14s %s\n", s.Algorithm, s.Summary)
		}
		fmt.Printf("\n-- per-dataset means (Fig. 7), cache %g --\n", frac)
		per := harness.Fig7PerDataset(results, frac)
		winners, counts := harness.BestPerDataset(per)
		datasets := make([]string, 0, len(per))
		for ds := range per {
			datasets = append(datasets, ds)
		}
		sort.Strings(datasets)
		for _, ds := range datasets {
			fmt.Printf("%-14s best=%-12s s3fifo=%+.3f lru=%+.3f arc=%+.3f tinylfu=%+.3f\n",
				ds, winners[ds], per[ds]["s3fifo"], per[ds]["lru"], per[ds]["arc"], per[ds]["tinylfu"])
		}
		fmt.Printf("dataset wins: %v\n", counts)
	}
	return nil
}

func fig8(scale float64) error {
	for _, large := range []bool{true, false} {
		label := "large cache (objects/10)"
		if !large {
			label = "small cache (objects/100)"
		}
		rows, err := harness.Fig8(harness.Fig8Config{
			Objects: int(2_000_000 * scale), OpsPerThread: int(20_000_000 * scale), LargeCache: large,
		})
		if err != nil {
			return err
		}
		fmt.Printf("-- %s --\n", label)
		fmt.Println("cache          threads  shards   Mops/s   hit-ratio      p50      p99     p999")
		for _, r := range rows {
			shards := "-"
			if r.Shards > 0 {
				shards = strconv.Itoa(r.Shards)
			}
			fmt.Printf("%-14s %7d  %6s  %7.2f  %.4f  %9v %8v %8v\n",
				r.Cache, r.Threads, shards, r.Throughput(), r.HitRatio(), r.P50(), r.P99(), r.P999())
		}
	}
	return nil
}

func fig10(scale float64) error {
	rows, lru, err := harness.Fig10(scale)
	if err != nil {
		return err
	}
	for _, r := range lru {
		fmt.Printf("baseline %s: miss %.4f\n", r.Algorithm, r.MissRatio())
	}
	fmt.Println("\ntrace    size  algorithm  Sratio  speed    precision  missratio")
	for _, r := range rows {
		fmt.Printf("%-8s %4g  %-9s  %5.2f   %7.2f  %9.3f  %.4f\n",
			r.Trace, r.SizeFrac, r.Algorithm, r.Ratio, r.Speed, r.Precision, r.MissRatio)
	}
	return nil
}

func fig11(scale float64, workers int) error {
	out, err := harness.Fig11(scale, workers)
	if err != nil {
		return err
	}
	printSummaries(out)
	return nil
}

func printSummaries(out map[float64][]harness.AlgoSummary) {
	fracs := make([]float64, 0, len(out))
	for f := range out {
		fracs = append(fracs, f)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(fracs)))
	for _, frac := range fracs {
		fmt.Printf("-- cache size = %g of footprint --\n", frac)
		for _, s := range out[frac] {
			fmt.Printf("%-22s %s\n", s.Algorithm, s.Summary)
		}
	}
}
