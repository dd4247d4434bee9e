package harness

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"s3fifo/internal/workload"
)

// smallCfg keeps harness tests fast: a 2% corpus with a reduced
// algorithm set.
func smallCfg() EfficiencyConfig {
	return EfficiencyConfig{
		Scale:      0.02,
		SizeFracs:  []float64{0.10},
		Algorithms: []string{"fifo", "lru", "clock", "s3fifo"},
		Workers:    4,
	}
}

var (
	sharedOnce    sync.Once
	sharedResults []EfficiencyResult
	sharedErr     error
)

// sharedRun computes the small corpus run once and shares it across the
// tests that only inspect aggregation.
func sharedRun(t *testing.T) []EfficiencyResult {
	t.Helper()
	sharedOnce.Do(func() { sharedResults, sharedErr = RunEfficiency(smallCfg()) })
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedResults
}

func TestRunEfficiencyBasics(t *testing.T) {
	results := sharedRun(t)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range results {
		if len(r.MissRatio) == 0 {
			continue // skipped (cache too small)
		}
		for algo, mr := range r.MissRatio {
			if mr <= 0 || mr >= 1 {
				t.Errorf("%s on %s: miss ratio %v out of range", algo, r.Trace, mr)
			}
		}
		if _, ok := r.MissRatio["fifo"]; !ok {
			t.Errorf("%s: fifo baseline missing", r.Trace)
		}
	}
}

// TestDeterministicResultsUnderConcurrency: the worker count affects only
// how long a run takes, never what it computes. Progress reaches every
// (trace, size) task exactly once either way.
func TestDeterministicResultsUnderConcurrency(t *testing.T) {
	cfg := smallCfg()
	cfg.Scale = 0.01
	tasks := len(workload.Corpus(cfg.Scale)) * len(cfg.SizeFracs)
	run := func(workers int) []EfficiencyResult {
		calls, last := 0, 0
		cfg.Workers = workers
		cfg.OnProgress = func(done, total int) {
			calls++
			last = done
			if total != tasks {
				t.Errorf("progress total %d, want %d", total, tasks)
			}
		}
		results, err := RunEfficiency(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if calls != tasks || last != tasks {
			t.Errorf("%d workers: %d progress calls, last done %d; want %d", workers, calls, last, tasks)
		}
		return results
	}
	one, four := run(1), run(4)
	if len(one) == 0 {
		t.Fatal("no results")
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("results differ between 1 and 4 workers:\n%+v\n%+v", one, four)
	}
}

// TestFailingSimulationFailsTheRun: a simulation is deterministic, so one
// that fails is a bug to report, not a task to drop.
func TestFailingSimulationFailsTheRun(t *testing.T) {
	cfg := smallCfg()
	cfg.Scale = 0.01
	cfg.Algorithms = []string{"fifo", "no-such-algo"}
	results, err := RunEfficiency(cfg)
	if err == nil || !strings.Contains(err.Error(), "no-such-algo") {
		t.Fatalf("RunEfficiency = %d results, error %v; want the unknown algorithm's error", len(results), err)
	}
}

func TestRunEfficiencyAddsFIFO(t *testing.T) {
	cfg := smallCfg()
	cfg.Scale = 0.005
	cfg.Algorithms = []string{"lru"}
	results, err := RunEfficiency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if len(r.MissRatio) == 0 {
			continue
		}
		if _, ok := r.MissRatio["fifo"]; !ok {
			t.Fatalf("fifo not auto-added for %s", r.Trace)
		}
	}
}

func TestFig6SummariesShape(t *testing.T) {
	results := sharedRun(t)
	sums := Fig6Summaries(results, 0.10)
	if len(sums) != 3 { // lru, clock, s3fifo (fifo is the baseline)
		t.Fatalf("got %d summaries", len(sums))
	}
	// Sorted best-first by mean.
	for i := 1; i < len(sums); i++ {
		if sums[i-1].Summary.Mean < sums[i].Summary.Mean {
			t.Error("summaries not sorted by mean")
		}
	}
	// The headline claim at corpus level: S3-FIFO has the best mean
	// reduction of the set.
	if sums[0].Algorithm != "s3fifo" {
		t.Errorf("best algorithm = %s, want s3fifo (means: %v)", sums[0].Algorithm, sums)
	}
	for _, s := range sums {
		if s.Summary.Mean < -1 || s.Summary.Mean > 1 {
			t.Errorf("%s: mean out of bounds: %v", s.Algorithm, s.Summary.Mean)
		}
	}
}

func TestFig7AndWinners(t *testing.T) {
	results := sharedRun(t)
	per := Fig7PerDataset(results, 0.10)
	if len(per) < 10 {
		t.Fatalf("only %d datasets", len(per))
	}
	winners, counts := BestPerDataset(per)
	if len(winners) != len(per) {
		t.Error("winner map size mismatch")
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(per) {
		t.Errorf("winner counts sum %d != datasets %d", total, len(per))
	}
	// S3-FIFO should win a majority of datasets even in this reduced set.
	if counts["s3fifo"] < len(per)/2 {
		t.Errorf("s3fifo wins only %d of %d datasets: %v", counts["s3fifo"], len(per), counts)
	}
}

func TestReductionsExcludesBaseline(t *testing.T) {
	results := sharedRun(t)
	red := Reductions(results, 0.10)
	if _, ok := red["fifo"]; ok {
		t.Error("fifo must not appear in its own reduction set")
	}
	if len(red["s3fifo"]) == 0 {
		t.Error("no s3fifo reductions")
	}
}

func TestFig4Shape(t *testing.T) {
	rows, err := Fig4(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 traces x {lru, belady}
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		var sum float64
		for _, s := range row.FreqShare {
			sum += s
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("%s/%s: shares sum to %v", row.Trace, row.Algorithm, sum)
		}
		// The §3 observation: a large share of evicted objects were never
		// reused after insertion.
		if row.FreqShare[0] < 0.10 {
			t.Errorf("%s/%s: freq-0 share only %v", row.Trace, row.Algorithm, row.FreqShare[0])
		}
	}
}

func TestFig8SmallRun(t *testing.T) {
	rows, err := Fig8(Fig8Config{
		Objects: 20_000, OpsPerThread: 100_000,
		Caches: []string{"lru-strict", "s3fifo"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(fig8Threads()); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Throughput() <= 0 {
			t.Errorf("%s@%d: zero throughput", r.Cache, r.Threads)
		}
		if hr := r.HitRatio(); hr <= 0 || hr > 1 {
			t.Errorf("%s@%d: hit ratio %v", r.Cache, r.Threads, hr)
		}
	}
}

func TestFig9SmallRun(t *testing.T) {
	rows, err := Fig9(0.03)
	if err != nil {
		t.Fatal(err)
	}
	// 2 traces x (1 + 3 + 3 + 3) configurations.
	if len(rows) != 20 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.MissRatio() <= 0 || r.MissRatio() >= 1 {
			t.Errorf("%s: miss ratio %v", r.Policy, r.MissRatio())
		}
	}
}

func TestFig10SmallRun(t *testing.T) {
	rows, lru, err := Fig10(0.03)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(lru) == 0 {
		t.Fatal("no rows")
	}
	// Check the §6.1 signature on s3fifo rows at the large size: speed
	// decreases monotonically as the S ratio grows.
	for _, tr := range []string{"twitter", "msr"} {
		var speeds []float64
		for _, ratio := range SmallQueueRatios {
			for _, row := range rows {
				if row.Trace == tr && row.Algorithm == "s3fifo" && row.Ratio == ratio && row.SizeFrac == 0.10 {
					speeds = append(speeds, row.Speed)
				}
			}
		}
		if len(speeds) != len(SmallQueueRatios) {
			t.Fatalf("%s: missing speed points (%d)", tr, len(speeds))
		}
		for i := 1; i < len(speeds); i++ {
			if speeds[i] > speeds[i-1]*1.05 { // allow small noise
				t.Errorf("%s: demotion speed not decreasing with S size: %v", tr, speeds)
			}
		}
	}
}

func TestAdaptiveAndAblationRun(t *testing.T) {
	a, err := AdaptiveComparison(0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a[0.10]) != 2 {
		t.Errorf("adaptive summaries: %v", a)
	}
	b, err := AblationComparison(0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(b[0.10]) != 6 {
		t.Errorf("ablation summaries: %v", b)
	}
}

func TestDesignAblationRuns(t *testing.T) {
	out, err := DesignAblation(0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	sums := out[0.10]
	if len(sums) != 8 {
		t.Fatalf("got %d design-ablation summaries", len(sums))
	}
	byName := map[string]float64{}
	for _, s := range sums {
		byName[s.Algorithm] = s.Summary.Mean
	}
	for _, name := range []string{"s3fifo", "s3fifo-t1", "s3fifo-t3", "s3fifo-g0.1", "s3fifo-g2"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing %s", name)
		}
	}
	// The canonical configuration should not be dominated by the extreme
	// ghost ablation: a tiny ghost forfeits readmission.
	if byName["s3fifo-g0.1"] > byName["s3fifo"]+0.02 {
		t.Errorf("tiny ghost (%.3f) should not beat the paper's sizing (%.3f)",
			byName["s3fifo-g0.1"], byName["s3fifo"])
	}
}
