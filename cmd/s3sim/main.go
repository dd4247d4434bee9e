// Command s3sim is the offline half of the repository: it replays traces
// through the eviction algorithms, generates traces, and regenerates the
// paper's figures and tables on the synthetic corpus.
//
//	s3sim replay -profile twitter -scale 0.1 -algos all -size 0.1
//	s3sim replay -trace msr.bin -algos s3fifo,lru,arc
//	s3sim gen    -profile msr -scale 0.5 -out msr.bin
//	s3sim mrc    -profile msr -algos s3fifo -sample 0.1
//	s3sim onehit -mode fig1|fig2|fig3|table1
//	s3sim fig    -exp fig4|fig6|fig7|byte|fig8|fig9|fig10|fig11|adaptive|ablation|design|all
//
// A trace comes from a file (binary, CSV or oracleGeneral, optionally
// gzipped; see internal/trace) or is generated from one of the 14 dataset
// profiles. `fig -scale` trades fidelity for time (default 0.1 of the
// canonical corpus); Fig. 8 scales its key space and operation count with
// it: 0.1 is 200k objects and 2M operations per measurement, at 1, 2, 4,
// 8 and 16 threads capped at the CPU count. A bad command line prints
// usage and exits 2.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"s3fifo/internal/analysis"
	"s3fifo/internal/harness"
	"s3fifo/internal/sampling"
	"s3fifo/internal/sim"
	"s3fifo/internal/stats"
	"s3fifo/internal/trace"
	"s3fifo/internal/workload"
)

// errUsage marks a bad command line; main exits 2 on it, as flag does.
var errUsage = errors.New("bad usage")

var subcommands = map[string]func(args []string, w io.Writer) error{
	"replay": replay,
	"gen":    gen,
	"mrc":    mrc,
	"onehit": onehit,
	"fig":    fig,
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, "s3sim:", err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "s3sim:", err)
		os.Exit(1)
	}
}

// run executes one subcommand, writing its report to w.
func run(args []string, w io.Writer) error {
	if len(args) > 0 {
		if cmd, ok := subcommands[args[0]]; ok {
			return cmd(args[1:], w)
		}
	}
	fmt.Fprintln(os.Stderr, "usage: s3sim replay|gen|mrc|onehit|fig [flags]  (s3sim <subcommand> -h lists its flags)")
	if len(args) == 0 {
		return fmt.Errorf("%w: no subcommand", errUsage)
	}
	return fmt.Errorf("%w: unknown subcommand %q", errUsage, args[0])
}

// parse parses a subcommand's flags; a parse error is a usage error.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	return nil
}

// badValue prints the subcommand's usage and reports an unknown value.
func badValue(fs *flag.FlagSet, name, value string) error {
	fs.Usage()
	return fmt.Errorf("%w: unknown -%s %q", errUsage, name, value)
}

// loadTrace reads the trace file at path or, without one, generates the
// named profile's variant at scale.
func loadTrace(path, profile string, variant int, scale float64) (trace.Trace, error) {
	if path != "" {
		return trace.LoadFile(path)
	}
	p, ok := workload.ProfileByName(profile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", profile)
	}
	return p.Generate(variant, scale), nil
}

// replay replays one trace through the chosen algorithms and prints a
// miss-ratio table. -size is the cache size as a fraction of the trace
// footprint (objects by default, bytes with -bytes).
func replay(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("s3sim replay", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "trace file (.bin, .csv, .oracleGeneral, optionally .gz); overrides -profile")
	profile := fs.String("profile", "twitter", "dataset profile to generate (see s3sim onehit -mode table1)")
	variant := fs.Int("variant", 0, "profile variant (tenant)")
	scale := fs.Float64("scale", 0.1, "profile scale factor")
	algoFlag := fs.String("algos", "fifo,lru,clock,arc,tinylfu,s3fifo", "comma-separated algorithms, or 'all'")
	size := fs.Float64("size", 0.10, "cache size as a fraction of the trace footprint")
	byteMode := fs.Bool("bytes", false, "size-aware simulation with byte miss ratios")
	if err := parse(fs, args); err != nil {
		return err
	}

	tr, err := loadTrace(*tracePath, *profile, *variant, *scale)
	if err != nil {
		return err
	}
	if !*byteMode {
		tr = sim.Unitize(tr)
	}
	algos := sim.Algorithms()
	if *algoFlag != "all" {
		algos = strings.Split(*algoFlag, ",")
	}

	capacity := sim.CacheSize(tr, *size, *byteMode)
	fmt.Fprintf(w, "trace: %d requests, %d objects; cache %d (%.3g of footprint)\n",
		len(tr), tr.UniqueObjects(), capacity, *size)
	for _, name := range algos {
		name = strings.TrimSpace(name)
		p, err := sim.NewPolicy(name, capacity, tr)
		if err != nil {
			return err
		}
		res := sim.Run(p, tr)
		res.Algorithm = name
		fmt.Fprintln(w, res)
	}
	return nil
}

// gen writes a synthetic trace to a file in the repository's binary
// format, CSV, or libCacheSim's oracleGeneral.
func gen(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("s3sim gen", flag.ContinueOnError)
	profile := fs.String("profile", "", "dataset profile to generate (empty = custom Zipf)")
	variant := fs.Int("variant", 0, "profile variant")
	scale := fs.Float64("scale", 1.0, "profile scale factor")
	objects := fs.Int("objects", 100_000, "custom: number of distinct objects")
	requests := fs.Int("requests", 1_000_000, "custom: trace length")
	alpha := fs.Float64("alpha", 1.0, "custom: Zipf skew")
	seed := fs.Int64("seed", 1, "custom: random seed")
	out := fs.String("out", "trace.bin", "output path")
	csv := fs.Bool("csv", false, "write CSV instead of binary")
	oracle := fs.Bool("oracle", false, "write libCacheSim oracleGeneral format")
	if err := parse(fs, args); err != nil {
		return err
	}

	var tr trace.Trace
	if *profile != "" {
		var err error
		if tr, err = loadTrace("", *profile, *variant, *scale); err != nil {
			return err
		}
	} else {
		tr = workload.Generate(workload.Config{
			Objects: *objects, Requests: *requests, Alpha: *alpha,
		}, *seed)
	}
	if err := writeTrace(*out, tr, *csv, *oracle); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d requests (%d objects) to %s\n", len(tr), tr.UniqueObjects(), *out)
	return nil
}

// writeTrace writes tr to path in one of the three trace formats.
func writeTrace(path string, tr trace.Trace, csv, oracle bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	buf := bufio.NewWriter(f)
	var enc interface{ Write(trace.Request) error }
	switch {
	case oracle:
		enc = trace.NewOracleWriter(buf)
	case csv:
		enc = trace.NewCSVWriter(buf)
	default:
		enc = trace.NewBinaryWriter(buf)
	}
	for _, r := range tr {
		if err = enc.Write(r); err != nil {
			break
		}
	}
	if fl, ok := enc.(interface{ Flush() error }); ok && err == nil {
		err = fl.Flush()
	}
	if err == nil {
		err = buf.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// mrc prints miss-ratio curves, optionally via SHARDS-style spatial
// sampling for downsized simulation (§6.2.3).
func mrc(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("s3sim mrc", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "trace file (.bin, .csv, .oracleGeneral, optionally .gz); overrides -profile")
	profile := fs.String("profile", "twitter", "dataset profile")
	scale := fs.Float64("scale", 0.1, "profile scale factor")
	algoFlag := fs.String("algos", "lru,s3fifo", "comma-separated algorithms")
	sample := fs.Float64("sample", 0, "spatial sampling rate (0 = full trace)")
	if err := parse(fs, args); err != nil {
		return err
	}

	tr, err := loadTrace(*tracePath, *profile, 0, *scale)
	if err != nil {
		return err
	}
	tr = sim.Unitize(tr)

	fracs := []float64{0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.40}
	fmt.Fprintf(w, "miss-ratio curves over %d requests, %d objects", len(tr), tr.UniqueObjects())
	if *sample > 0 {
		fmt.Fprintf(w, " (spatial sample rate %g)", *sample)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s", "cache size")
	for _, f := range fracs {
		fmt.Fprintf(w, " %6.3f", f)
	}
	fmt.Fprintln(w)
	for _, algo := range strings.Split(*algoFlag, ",") {
		algo = strings.TrimSpace(algo)
		pts, err := sampling.MRC(tr, sampling.Config{
			Algorithm: algo, SizeFracs: fracs, SampleRate: *sample, Seed: 1,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s", algo)
		for _, p := range pts {
			fmt.Fprintf(w, " %6.3f", p.MissRatio)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// onehit reproduces the paper's one-hit-wonder analyses: Fig. 1's toy
// prefix table, Fig. 2's ratio vs sequence length, Fig. 3's distribution
// across the corpus and Table 1's per-dataset statistics. -scale shrinks
// the synthetic traces; the shapes are stable across scales.
func onehit(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("s3sim onehit", flag.ContinueOnError)
	mode := fs.String("mode", "table1", "fig1 | fig2 | fig3 | table1")
	scale := fs.Float64("scale", 0.2, "trace scale factor")
	samples := fs.Int("samples", 10, "Monte Carlo samples per point")
	if err := parse(fs, args); err != nil {
		return err
	}
	switch *mode {
	case "fig1":
		fig1(w)
	case "fig2":
		fig2(w, *scale, *samples)
	case "fig3":
		fig3(w, *scale, *samples)
	case "table1":
		table1(w, *scale, *samples)
	default:
		return badValue(fs, "mode", *mode)
	}
	return nil
}

// fig1 prints the toy example of Fig. 1.
func fig1(w io.Writer) {
	ids := []uint64{1, 2, 1, 3, 2, 1, 4, 1, 2, 3, 2, 1, 5, 3, 1, 2, 4}
	tr := make(trace.Trace, len(ids))
	for i, id := range ids {
		tr[i] = trace.Request{ID: id, Size: 1}
	}
	fmt.Fprintln(w, "Fig. 1 — one-hit-wonder ratio of prefixes of the toy trace")
	fmt.Fprintln(w, "prefix  objects  one-hit-wonders  ratio")
	for _, end := range []int{4, 7, len(tr)} {
		prefix := tr[:end]
		objs := prefix.UniqueObjects()
		ratio := analysis.OneHitWonderRatio(prefix)
		fmt.Fprintf(w, "1..%-4d %-8d %-16.0f %.0f%%\n", end, objs, ratio*float64(objs), ratio*100)
	}
}

// fig2 prints the one-hit-wonder ratio vs sequence length curves.
func fig2(w io.Writer, scale float64, samples int) {
	fractions := []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 0.5, 0.75, 1.0}
	fmt.Fprintln(w, "Fig. 2 — one-hit-wonder ratio vs sequence length (fraction of objects)")
	fmt.Fprintf(w, "%-18s", "trace")
	for _, f := range fractions {
		fmt.Fprintf(w, " %6.3f", f)
	}
	fmt.Fprintln(w)

	row := func(name string, tr trace.Trace) {
		pts := analysis.Curve(tr, fractions, samples, 42)
		fmt.Fprintf(w, "%-18s", name)
		for _, p := range pts {
			fmt.Fprintf(w, " %6.3f", p.Ratio)
		}
		fmt.Fprintln(w)
	}
	// Synthetic Zipf traces under the independent reference model.
	for _, alpha := range []float64{0.6, 0.8, 1.0, 1.2} {
		cfg := workload.Config{Objects: int(1e5 * scale * 5), Requests: int(1e6 * scale * 5), Alpha: alpha}
		row(fmt.Sprintf("zipf a=%.1f", alpha), workload.Generate(cfg, 1))
	}
	// Production-profile traces (MSR block, Twitter KV).
	for _, name := range []string{"msr", "twitter"} {
		p, _ := workload.ProfileByName(name)
		row(name, p.Generate(0, scale))
	}
}

// fig3 prints the corpus-wide distribution of one-hit-wonder ratios.
func fig3(w io.Writer, scale float64, samples int) {
	lengths := []float64{1.0, 0.5, 0.1, 0.01}
	ratios := make(map[float64][]float64)
	for _, spec := range workload.Corpus(scale) {
		tr := spec.Materialize()
		for _, l := range lengths {
			ratios[l] = append(ratios[l], analysis.SubsequenceOneHitWonder(tr, l, samples, 7))
		}
	}
	fmt.Fprintln(w, "Fig. 3 — one-hit-wonder ratio across the corpus")
	fmt.Fprintln(w, "seq length   p10    p25    median mean   p75    p90")
	for _, l := range lengths {
		s := stats.Summarize(ratios[l])
		fmt.Fprintf(w, "%-12.2f %.3f  %.3f  %.3f  %.3f  %.3f  %.3f\n",
			l, s.P10, s.P25, s.P50, s.Mean, s.P75, s.P90)
	}
}

// table1 prints per-dataset statistics next to the paper's targets.
func table1(w io.Writer, scale float64, samples int) {
	fmt.Fprintln(w, "Table 1 — dataset statistics (synthetic profiles vs paper targets)")
	fmt.Fprintf(w, "%-14s %-6s %9s %9s | %15s %15s %15s\n",
		"dataset", "type", "requests", "objects", "ohw-full(tgt)", "ohw-10%(tgt)", "ohw-1%(tgt)")
	for _, p := range workload.Profiles {
		tr := p.Generate(0, scale)
		st := analysis.Stats(tr, samples, 3)
		fmt.Fprintf(w, "%-14s %-6s %9d %9d |   %.2f (%.2f)    %.2f (%.2f)    %.2f (%.2f)\n",
			p.Name, p.CacheType, st.Requests, st.Objects,
			st.OneHitFull, p.Target[0], st.OneHit10, p.Target[1], st.OneHit1, p.Target[2])
	}
}

// figOpts are the settings every experiment of `s3sim fig` shares.
type figOpts struct {
	scale    float64
	workers  int
	progress func(done, total int)
}

// experiments are `s3sim fig`'s experiments in the order -exp all runs
// them; names lists the -exp values that select each.
var experiments = []struct {
	names []string
	title string
	run   func(w io.Writer, o figOpts) error
}{
	{[]string{"fig4"}, "Fig. 4 — frequency of objects at eviction", fig4},
	{[]string{"fig6", "fig7"}, "Fig. 6/7 — miss-ratio reductions", func(w io.Writer, o figOpts) error {
		return fig67(w, o, false)
	}},
	{[]string{"byte"}, "§5.2.3 — byte miss-ratio reductions", func(w io.Writer, o figOpts) error {
		return fig67(w, o, true)
	}},
	{[]string{"fig8"}, "Fig. 8 — throughput scaling", fig8},
	{[]string{"fig9"}, "Fig. 9 — flash admission: miss ratio and normalized write bytes", func(w io.Writer, o figOpts) error {
		rows, err := harness.Fig9(o.scale)
		for _, r := range rows {
			fmt.Fprintln(w, r)
		}
		return err
	}},
	{[]string{"fig10"}, "Fig. 10 + Table 2 — quick demotion", fig10},
	{[]string{"fig11"}, "Fig. 11 — small queue size sweep", func(w io.Writer, o figOpts) error {
		return printSummaries(w)(harness.Fig11(o.scale, o.workers))
	}},
	{[]string{"adaptive"}, "§6.2.2 — S3-FIFO vs S3-FIFO-D", func(w io.Writer, o figOpts) error {
		return printSummaries(w)(harness.AdaptiveComparison(o.scale, o.workers))
	}},
	{[]string{"ablation"}, "§6.3 — queue-type ablation", func(w io.Writer, o figOpts) error {
		return printSummaries(w)(harness.AblationComparison(o.scale, o.workers))
	}},
	{[]string{"design"}, "design ablation — move threshold & ghost size", func(w io.Writer, o figOpts) error {
		return printSummaries(w)(harness.DesignAblation(o.scale, o.workers))
	}},
}

// fig regenerates the paper's evaluation figures and tables.
func fig(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("s3sim fig", flag.ContinueOnError)
	exp := fs.String("exp", "fig6", "experiment: fig4|fig6|fig7|byte|fig8|fig9|fig10|fig11|adaptive|ablation|design|all")
	scale := fs.Float64("scale", 0.1, "corpus scale factor")
	workers := fs.Int("workers", 0, "simulations run at once (0 = NumCPU)")
	verbose := fs.Bool("v", false, "print progress")
	if err := parse(fs, args); err != nil {
		return err
	}
	o := figOpts{scale: *scale, workers: *workers}
	if *verbose {
		o.progress = func(done, total int) { fmt.Fprintf(os.Stderr, "\r%d/%d", done, total) }
	}

	ran := false
	for _, e := range experiments {
		if *exp != "all" && !slices.Contains(e.names, *exp) {
			continue
		}
		ran = true
		fmt.Fprintf(w, "==== %s ====\n", e.title)
		if err := e.run(w, o); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if !ran {
		return badValue(fs, "exp", *exp)
	}
	return nil
}

func fig4(w io.Writer, o figOpts) error {
	rows, err := harness.Fig4(o.scale)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "trace    algorithm  freq:0     1      2      3      4+")
	for _, r := range rows {
		rest := 0.0
		for i := 4; i < len(r.FreqShare); i++ {
			rest += r.FreqShare[i]
		}
		fmt.Fprintf(w, "%-8s %-9s  %.3f  %.3f  %.3f  %.3f  %.3f\n",
			r.Trace, r.Algorithm, r.FreqShare[0], r.FreqShare[1], r.FreqShare[2], r.FreqShare[3], rest)
	}
	return nil
}

func fig67(w io.Writer, o figOpts, byteMode bool) error {
	results, err := harness.RunEfficiency(harness.EfficiencyConfig{
		Scale: o.scale, Workers: o.workers, ByteMode: byteMode, OnProgress: o.progress,
	})
	if o.progress != nil {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	for _, frac := range []float64{0.10, 0.01} {
		fmt.Fprintf(w, "\n-- cache size = %g of footprint: miss-ratio reduction vs FIFO --\n", frac)
		for _, s := range harness.Fig6Summaries(results, frac) {
			fmt.Fprintf(w, "%-14s %s\n", s.Algorithm, s.Summary)
		}
		fmt.Fprintf(w, "\n-- per-dataset means (Fig. 7), cache %g --\n", frac)
		per := harness.Fig7PerDataset(results, frac)
		winners, counts := harness.BestPerDataset(per)
		datasets := make([]string, 0, len(per))
		for ds := range per {
			datasets = append(datasets, ds)
		}
		sort.Strings(datasets)
		for _, ds := range datasets {
			fmt.Fprintf(w, "%-14s best=%-12s s3fifo=%+.3f lru=%+.3f arc=%+.3f tinylfu=%+.3f\n",
				ds, winners[ds], per[ds]["s3fifo"], per[ds]["lru"], per[ds]["arc"], per[ds]["tinylfu"])
		}
		fmt.Fprintf(w, "dataset wins: %v\n", counts)
	}
	return nil
}

func fig8(w io.Writer, o figOpts) error {
	for _, large := range []bool{true, false} {
		label := "large cache (objects/10)"
		if !large {
			label = "small cache (objects/100)"
		}
		rows, err := harness.Fig8(harness.Fig8Config{
			Objects: int(2_000_000 * o.scale), OpsPerThread: int(20_000_000 * o.scale), LargeCache: large,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- %s --\n", label)
		fmt.Fprintln(w, "cache          threads  shards   Mops/s   hit-ratio      p50      p99     p999")
		for _, r := range rows {
			shards := "-"
			if r.Shards > 0 {
				shards = strconv.Itoa(r.Shards)
			}
			fmt.Fprintf(w, "%-14s %7d  %6s  %7.2f  %.4f  %9v %8v %8v\n",
				r.Cache, r.Threads, shards, r.Throughput(), r.HitRatio(), r.P50(), r.P99(), r.P999())
		}
	}
	return nil
}

func fig10(w io.Writer, o figOpts) error {
	rows, lru, err := harness.Fig10(o.scale)
	if err != nil {
		return err
	}
	for _, r := range lru {
		fmt.Fprintf(w, "baseline %s: miss %.4f\n", r.Algorithm, r.MissRatio())
	}
	fmt.Fprintln(w, "\ntrace    size  algorithm  Sratio  speed    precision  missratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %4g  %-9s  %5.2f   %7.2f  %9.3f  %.4f\n",
			r.Trace, r.SizeFrac, r.Algorithm, r.Ratio, r.Speed, r.Precision, r.MissRatio)
	}
	return nil
}

// printSummaries returns a printer of reduction summaries per cache size,
// largest first, that passes on the error of the run that made them.
func printSummaries(w io.Writer) func(map[float64][]harness.AlgoSummary, error) error {
	return func(out map[float64][]harness.AlgoSummary, err error) error {
		if err != nil {
			return err
		}
		fracs := make([]float64, 0, len(out))
		for f := range out {
			fracs = append(fracs, f)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(fracs)))
		for _, frac := range fracs {
			fmt.Fprintf(w, "-- cache size = %g of footprint --\n", frac)
			for _, s := range out[frac] {
				fmt.Fprintf(w, "%-22s %s\n", s.Algorithm, s.Summary)
			}
		}
		return nil
	}
}
