// Command bench is the repository's benchmark: a single-process load
// generator and checker for four workloads (see README.md, next to this
// file, for the catalogue and how to read the numbers).
//
//	bench --workload served-hot --seed 1 --seconds 24 --trace 0   one timed run
//	bench --workload served-hot --seed 1 --seconds 24 --trace 1   one traced run (per-layer)
//	bench -repeat 10                                               every workload ten times, spreads judged
//
// A single run prints its metrics by name and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is what a run leaves in bench/out: the result with its host
// and inputs.
type resultFile struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	StreamHash string         `json:"stream_hash"`
	Host       fingerprint    `json:"host"`
	Samples    map[string]int `json:"samples,omitempty"`
	Invalid    []string       `json:"invalid,omitempty"`
	Result     result         `json:"result"`
}

// The benchmark must end within the driver's 180 s whatever the system
// under test does; a hung child is killed with it (Pdeathsig).
const watchdog = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, via -repeat)")
		seed    = flag.Uint64("seed", 1, "seed of the request stream")
		seconds = flag.Float64("seconds", 24, "seconds one run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the timed run")
		repeat  = flag.Int("repeat", 0, "run N full sets of every workload (or of -workload) and judge the spreads")
	)
	flag.Parse()
	runtime.GOMAXPROCS(embeddedClients)

	l, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *repeat > 0 || *name == "" {
		if *repeat < 1 {
			*repeat = 1
		}
		os.Exit(runSets(l, *name, *seed, *seconds, *repeat))
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %v: at least 1", *seconds))
	}

	// An interrupt ends the run at once; the kernel then kills the child
	// (Pdeathsig), and the temp dir is removed here.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(l.tmp)
		os.Exit(130)
	}()

	rf := resultFile{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Host: takeFingerprint(l)}
	s := w.build(*seed)
	rf.StreamHash = fmt.Sprintf("%016x", s.hash())

	if err := l.buildServer(); err != nil { // untimed, and before the watchdog: the first build is slow
		fatal(err)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded", watchdog, "- giving up")
		os.RemoveAll(l.tmp)
		os.Exit(3)
	})

	if *trace != 0 {
		err = l.traced(w, s, *seconds, &rf)
	} else {
		err = l.timedRun(w, s, *seconds, &rf)
	}
	os.RemoveAll(l.tmp) // every child has been stopped and waited for by now
	if err != nil {
		fatal(err)
	}
	emit(l, rf)
	if !rf.Result.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// timedRun fills rf from a --trace 0 run.
func (l layout) timedRun(w *workload, s *stream, seconds float64, rf *resultFile) error {
	t, err := l.runTimed(w, s, seconds)
	if err != nil {
		return err
	}
	m := map[string]float64{
		"setup_s":       t.setupS,
		"kops":          t.closed.kops(),
		"cpu_us_per_op": t.closed.cpuUsPerOp(),
		"miss_ratio":    t.closed.missRatio(),
		"rss_mb":        t.rssMB,
	}
	rf.Samples = map[string]int{"get": samples(t.get), "set": samples(t.set)}
	for name, p := range map[string]struct {
		from [][]int64
		q    float64
	}{"get_p50_us": {t.get, 0.50}, "set_p50_us": {t.set, 0.50}} {
		v, ok := windowed(p.from, p.q)
		if !ok {
			rf.Invalid = append(rf.Invalid, fmt.Sprintf("%s: too few of %d samples beyond it", name, samples(p.from)))
			continue
		}
		m[name] = v / 1e3
	}
	rf.Invalid = append(rf.Invalid, t.invalid...)
	rf.Result = makeResult(endToEnd, m, t.total)
	return nil
}

func samples(parts [][]int64) int {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// makeResult renders the measured values of one catalogue. The run is
// correct when no request failed and every metric was measured: a workload
// never reports a made-up number. (A generator that ran late is said in
// the result file's `invalid`, not here: it makes the latencies doubtful,
// not the cache's answers wrong.)
func makeResult(defs []metricDef, values map[string]float64, total counts) result {
	r := result{
		Correct:   total.fail.total() == 0,
		Attempted: total.done,
		Failed:    total.fail.total(),
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			r.Correct = false
			continue
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return r
}

// emit prints every metric by name with its unit and direction, writes
// the result file, and ends standard output with the result line.
func emit(l layout, rf resultFile) {
	defs := endToEnd
	if rf.Trace {
		defs = perLayer
	}
	fmt.Printf("workload %s seed %d seconds %v stream %s\n", rf.Workload, rf.Seed, rf.Seconds, rf.StreamHash)
	fmt.Printf("host nproc=%d gomaxprocs=%d %s commit=%s kernel=%s temp_fs=%s load1=%.2f (%s)\n",
		rf.Host.NProc, rf.Host.GOMAXPROCS, rf.Host.GoVersion, rf.Host.Commit, rf.Host.Kernel, rf.Host.TempFS, rf.Host.Load1, rf.Host.Network)
	for _, d := range defs {
		if m, ok := rf.Result.Metrics[d.Name]; ok {
			fmt.Printf("  %-40s %14.4f %-7s (%s is better)\n", d.Name, m.Value, m.Unit, d.Better)
		} else {
			fmt.Printf("  %-40s %14s\n", d.Name, "missing")
		}
	}
	for k, n := range rf.Samples {
		fmt.Printf("  samples.%s %d\n", k, n)
	}
	for _, why := range rf.Invalid {
		fmt.Println("  INVALID:", why)
	}
	fmt.Printf("  attempted %d failed %d correct %v\n", rf.Result.Attempted, rf.Result.Failed, rf.Result.Correct)

	if err := os.MkdirAll(l.outDir(), 0o755); err == nil {
		kind := "timed"
		if rf.Trace {
			kind = "traced"
		}
		b, _ := json.MarshalIndent(rf, "", "  ")
		path := filepath.Join(l.outDir(), fmt.Sprintf("%s-%s-seed%d.json", kind, rf.Workload, rf.Seed))
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
	line, _ := json.Marshal(rf.Result)
	fmt.Println(string(line))
}
