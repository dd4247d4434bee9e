package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// histTotal returns the number of observations h holds.
func histTotal(h *Histogram) uint64 {
	counts, _ := h.snapshot()
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// A gauge is read at scrape time.
	r := NewRegistry()
	n := 7
	r.GaugeFunc("depth", "queue depth", nil, func() float64 { return float64(n) })
	n = 4
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := vals["depth"]; got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
}

func TestNilInstrumentsNoop(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var h *Histogram
	h.Observe(time.Second)
	h.Merge(nil)
	if h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should read 0")
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	if r.Counter("a_total", "h", nil) != nil {
		t.Fatal("nil registry should hand out nil counters")
	}
	if r.Histogram("c_seconds", "h", nil) != nil {
		t.Fatal("nil registry should hand out nil histograms")
	}
	r.CounterFunc("d_total", "h", nil, func() uint64 { return 1 })
	r.GaugeFunc("e", "h", nil, func() float64 { return 1 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry rendered %q", buf.String())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast ops around 1µs, 10 slow around 1ms.
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 * time.Millisecond)
	}
	if got := histTotal(&h); got != 100 {
		t.Fatalf("total = %d, want 100", got)
	}
	p50 := h.Quantile(0.50)
	if p50 < 1*time.Microsecond || p50 > 2*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1µs bucket bound", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 1*time.Millisecond || p99 > 2*time.Millisecond {
		t.Fatalf("p99 = %v, want ~1ms bucket bound", p99)
	}
	if _, sum := h.snapshot(); time.Duration(sum) != 90*time.Microsecond+10*time.Millisecond {
		t.Fatalf("sum = %v", time.Duration(sum))
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(10 * time.Nanosecond)
	b.Observe(10 * time.Millisecond)
	a.Merge(&b)
	if got := histTotal(&a); got != 2 {
		t.Fatalf("merged total = %d, want 2", got)
	}
	if got := a.Quantile(1); got < 10*time.Millisecond {
		t.Fatalf("merged max quantile = %v, want >= 10ms", got)
	}
}

func TestHistogramObserveNegative(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if histTotal(&h) != 1 {
		t.Fatal("negative observation should count as zero, not be dropped")
	}
	if h.Quantile(0.5) > time.Nanosecond {
		t.Fatalf("negative observation landed at %v", h.Quantile(0.5))
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "h", Labels{{"op", "get"}})
	c2 := r.Counter("x_total", "h", Labels{{"op", "get"}})
	if c1 != c2 {
		t.Fatal("same name+labels should return the same counter")
	}
	c3 := r.Counter("x_total", "h", Labels{{"op", "set"}})
	if c1 == c3 {
		t.Fatal("different labels should return a different counter")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "h", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	r.GaugeFunc("x_total", "h", nil, func() float64 { return 0 })
}

// TestConcurrentUpdatesAndRender is the race-detector test the Makefile
// wires into tier1: hammer every instrument kind from many goroutines
// while scraping concurrently.
func TestConcurrentUpdatesAndRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops", Labels{{"op", "get"}})
	h := r.Histogram("lat_seconds", "latency", Labels{{"op", "get"}})
	r.GaugeFunc("derived", "scrape-time gauge", nil, func() float64 {
		return float64(c.Value())
	})

	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(time.Duration(j%1000) * time.Microsecond)
				// Concurrent re-registration of an existing series must be
				// safe too: layers look metrics up independently.
				if j%512 == 0 {
					r.Counter("ops_total", "ops", Labels{{"op", "get"}}).Add(0)
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := ParseText(&buf); err != nil {
				t.Errorf("mid-update exposition does not parse: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := histTotal(h); got != goroutines*perG {
		t.Fatalf("histogram total = %d, want %d", got, goroutines*perG)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	cases := []string{
		"no_type_line 3",                             // sample without TYPE
		"# TYPE x bogus\nx 1",                        // unknown type
		"# TYPE x counter\nx{op=\"unterminated 3",    // unterminated label block
		"# TYPE x counter\nx{op=\"get\"} notanumber", // bad value
		"# TYPE x counter\nx{op=\"get\"}",            // missing value
		"# HELP x\n# TYPE x counter\nx 1",            // malformed HELP
	}
	for _, in := range cases {
		if _, err := ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("ParseText accepted %q", in)
		}
	}
}

func TestParseTextLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("weird_total", "values with \"quotes\", \\backslashes\\ and\nnewlines",
		Labels{{"path", `C:\tmp` + "\n" + `"x y"`}})
	c.Add(3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("escaped output does not parse: %v\n%s", err, buf.String())
	}
	want := `weird_total{path="C:\\tmp\n\"x y\""}`
	if got, ok := vals[want]; !ok || got != 3 {
		t.Fatalf("parsed %v, want %s = 3", vals, want)
	}
}
