package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with one series of every kind, with
// deterministic values, covering label escaping and histogram rendering.
func goldenRegistry() *Registry {
	r := NewRegistry()
	hits := r.Counter("cache_hits_total", "Lookups served from the cache.", Labels{{"tier", "dram"}})
	hits.Add(123)
	r.Counter("cache_hits_total", "Lookups served from the cache.", Labels{{"tier", "flash"}}).Add(4)
	r.GaugeFunc("cache_entries", "Resident entries.", nil, func() float64 { return 17 })
	r.CounterFunc("cache_evictions_total", "Capacity evictions.", Labels{{"reason", "small_queue_evict"}},
		func() uint64 { return 9 })
	r.GaugeFunc("cache_used_ratio", "Used bytes over capacity.", nil, func() float64 { return 0.75 })
	h := r.Histogram("cache_op_duration_seconds", "Sampled per-op latency.", Labels{{"op", "get"}})
	h.Observe(100 * time.Nanosecond) // bucket le=128ns
	h.Observe(100 * time.Nanosecond)
	h.Observe(3 * time.Microsecond) // bucket le=4096ns
	r.Counter("escape_total", "Help with \\ and\nnewline.", Labels{{"v", "a\"b\\c\nd"}}).Add(1)
	return r
}

// TestGoldenExposition pins the exact exposition output: families sorted
// by name, HELP/TYPE lines, cumulative histogram buckets with le in
// seconds, escaped help text and label values.
func TestGoldenExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file.\n--- got ---\n%s--- want ---\n%s",
			buf.String(), want)
	}
}

// TestGoldenParses feeds the golden registry's output through the
// validating parser and spot-checks values, including the histogram
// series derived from the log2 buckets.
func TestGoldenParses(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("golden output does not parse: %v", err)
	}
	checks := map[string]float64{
		`cache_hits_total{tier="dram"}`:                        123,
		`cache_hits_total{tier="flash"}`:                       4,
		`cache_entries`:                                        17,
		`cache_evictions_total{reason="small_queue_evict"}`:    9,
		`cache_used_ratio`:                                     0.75,
		`cache_op_duration_seconds_count{op="get"}`:            3,
		`cache_op_duration_seconds_bucket{op="get",le="+Inf"}`: 3,
	}
	for k, want := range checks {
		if got, ok := vals[k]; !ok {
			t.Errorf("missing series %s", k)
		} else if got != want {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
	// 100ns observations land in the le=2^7ns bucket; cumulative count at
	// the 3µs bucket (le=2^12ns) must include all three observations.
	if got := vals[`cache_op_duration_seconds_bucket{op="get",le="1.28e-07"}`]; got != 2 {
		t.Errorf("128ns bucket = %v, want 2", got)
	}
	if got := vals[`cache_op_duration_seconds_bucket{op="get",le="4.096e-06"}`]; got != 3 {
		t.Errorf("4096ns bucket = %v, want 3", got)
	}
	// Sum: 2*100ns + 3000ns = 3.2µs.
	if got := vals[`cache_op_duration_seconds_sum{op="get"}`]; got < 3.19e-6 || got > 3.21e-6 {
		t.Errorf("sum = %v, want ~3.2e-06", got)
	}
}

// TestHistogramBucketsCumulative verifies the bucket invariant on a
// freshly rendered histogram: counts never decrease as le grows.
func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "l", nil)
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	last := -1.0
	n := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket") {
			continue
		}
		vals, err := ParseText(strings.NewReader("# TYPE lat_seconds histogram\n" + line + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			if v < last {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			last = v
			n++
		}
	}
	if n == 0 {
		t.Fatal("no bucket lines rendered")
	}
}
