package cache

import (
	"flag"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// scalingGate turns TestHitScalingGate on: `make bench-scaling` passes it.
// The gate compares two timings, so it stays out of the plain test run.
var scalingGate = flag.Bool("scaling-gate", false, "run the hit-scaling gate (make bench-scaling)")

// hitScalingKeys resident keys fit in the CPU's cache, so what the
// benchmark prices is the shared state a hit touches, not memory.
const hitScalingKeys = 1024

// benchHits has each of g goroutines Get resident keys b.N times on one
// concurrent-engine cache, all over the same keys from different offsets;
// ns/op is therefore what one hit costs a goroutine while g of them run.
func benchHits(b *testing.B, g int) {
	c := mustNew(b, Config{MaxBytes: 1 << 24, Engine: "concurrent"})
	keys := make([]string, hitScalingKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
		c.Set(keys[i], make([]byte, 64))
		c.Get(keys[i])
		c.Get(keys[i]) // frequency at its cap: later hits write nothing
		c.Get(keys[i])
	}
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * (hitScalingKeys / 2); i < w*(hitScalingKeys/2)+b.N; i++ {
				if _, ok := c.Get(keys[i%hitScalingKeys]); !ok {
					b.Error("resident key missed")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkHitScaling is the paper's scalability claim (§4.3) as one
// number: a hit's cost with two goroutines over its cost with one.
func BenchmarkHitScaling(b *testing.B) {
	for _, g := range []int{1, 2} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) { benchHits(b, g) })
	}
}

// TestHitScalingGate fails when a hit costs a goroutine more than 1.5x as
// much with a second goroutine hitting the same cache as it does alone.
func TestHitScalingGate(t *testing.T) {
	if !*scalingGate {
		t.Skip("timing gate: run with -scaling-gate (make bench-scaling)")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two CPUs")
	}
	// Best of three: the gate is about the code's floor, not the host's
	// worst moment.
	best := func(g int) float64 {
		ns := 0.0
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(func(b *testing.B) { benchHits(b, g) })
			if v := float64(r.T.Nanoseconds()) / float64(r.N); ns == 0 || v < ns {
				ns = v
			}
		}
		return ns
	}
	one, two := best(1), best(2)
	t.Logf("hit cost: %.1f ns at 1 goroutine, %.1f ns at 2 (%.2fx)", one, two, two/one)
	if two > 1.5*one {
		t.Fatalf("2-goroutine hit costs %.1f ns, more than 1.5x the 1-goroutine %.1f ns", two, one)
	}
}
