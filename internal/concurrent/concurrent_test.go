package concurrent

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func allCaches(t testing.TB, capacity int) []Cache {
	t.Helper()
	var cs []Cache
	for _, name := range Names() {
		c, err := New(name, capacity)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	return cs
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("nope", 10); err == nil {
		t.Error("unknown cache should error")
	}
}

func TestBasicGetSet(t *testing.T) {
	for _, c := range allCaches(t, 100) {
		if _, ok := c.Get(1); ok {
			t.Errorf("%s: hit on empty cache", c.Name())
		}
		c.Set(1, []byte("hello"))
		v, ok := c.Get(1)
		if !ok || string(v) != "hello" {
			t.Errorf("%s: Get = %q, %v", c.Name(), v, ok)
		}
		c.Set(1, []byte("world"))
		if v, _ := c.Get(1); string(v) != "world" {
			t.Errorf("%s: replace failed: %q", c.Name(), v)
		}
		if c.Capacity() != 100 {
			t.Errorf("%s: capacity = %d", c.Name(), c.Capacity())
		}
	}
}

func TestEvictionBoundsResidency(t *testing.T) {
	for _, c := range allCaches(t, 64) {
		for i := uint64(0); i < 1000; i++ {
			c.Set(i, []byte{1})
		}
		if got := c.Len(); got > 64 {
			t.Errorf("%s: Len = %d > capacity 64", c.Name(), got)
		}
		if got := c.Len(); got < 32 {
			t.Errorf("%s: Len = %d, cache badly underfilled", c.Name(), got)
		}
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	// Hammer each cache from many goroutines; correctness = no panics, no
	// lost updates for resident keys, bounded residency. Run with -race.
	for _, c := range allCaches(t, 1024) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			var wg sync.WaitGroup
			threads := runtime.GOMAXPROCS(0)
			if threads > 8 {
				threads = 8
			}
			for g := 0; g < threads; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					val := []byte(fmt.Sprintf("v%d", g))
					for i := 0; i < 20000; i++ {
						key := uint64((i * 31) % 4096)
						if v, ok := c.Get(key); ok {
							if len(v) < 2 || v[0] != 'v' {
								t.Errorf("corrupt value %q", v)
								return
							}
						} else {
							c.Set(key, val)
						}
					}
				}(g)
			}
			wg.Wait()
			if got := c.Len(); got > c.Capacity() {
				t.Errorf("Len %d > capacity %d after concurrent load", got, c.Capacity())
			}
		})
	}
}

func TestS3FIFODelete(t *testing.T) {
	c := NewS3FIFO(100)
	c.Set(1, []byte("x"))
	c.Delete(1)
	if _, ok := c.Get(1); ok {
		t.Error("deleted key still readable")
	}
	c.Delete(2) // absent: no-op
	// Deleted slots are tombstones; capacity accounting must hold under
	// churn that mixes deletes and inserts.
	for i := uint64(0); i < 5000; i++ {
		c.Set(i, []byte("y"))
		if i%3 == 0 {
			c.Delete(i)
		}
	}
	if got := c.Len(); got > c.Capacity() {
		t.Errorf("Len %d > capacity", got)
	}
}

// TestS3FIFOMissRatioMatchesSimulator cross-checks the concurrent
// implementation against the single-threaded simulator implementation on
// a serial replay (the paper verified its prototype the same way, §5.3).
func TestS3FIFOMissRatioMatchesSimulator(t *testing.T) {
	w := NewZipfWorkload(20000, 200000, 1.0, 8, 42)
	cc := NewS3FIFO(2000)
	var ccMisses int
	for _, k := range w.Keys {
		if _, ok := cc.Get(k); !ok {
			ccMisses++
			cc.Set(k, w.Value)
		}
	}
	simMisses := simulatorMisses(t, w.Keys, 2000)
	ratio := float64(ccMisses) / float64(simMisses)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("concurrent misses %d vs simulator %d (ratio %.3f)", ccMisses, simMisses, ratio)
	}
}

// TestWarmParallelMatchesSerial: the parallelized Warm must produce the
// same resident set as a serial on-demand fill (workers partition the key
// space, so per-key ordering is preserved, and advance in step, so none
// finishes early and leaves the others to evict its hot keys).
func TestWarmParallelMatchesSerial(t *testing.T) {
	w := NewZipfWorkload(5000, 100000, 1.0, 8, 13)
	serial := NewS3FIFOSharded(500, 4)
	warmResidue(serial, w.Keys, w.Value, 0, 1)
	parallel := NewS3FIFOSharded(500, 4)
	Warm(parallel, w)
	if sl, pl := serial.Len(), parallel.Len(); absI(sl-pl) > sl/10 {
		t.Errorf("parallel warm Len %d far from serial %d", pl, sl)
	}
	// The hot head of the Zipf distribution must be resident either way.
	missingHot := 0
	for k := uint64(0); k < 20; k++ {
		if _, ok := parallel.Get(k); !ok {
			missingHot++
		}
	}
	if missingHot > 2 {
		t.Errorf("%d of the 20 hottest keys missing after parallel warm", missingHot)
	}
}

func absI(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func TestWorkloadAndWarm(t *testing.T) {
	w := NewZipfWorkload(1000, 10000, 1.0, 16, 7)
	if len(w.Keys) != 10000 || len(w.Value) != 16 {
		t.Fatalf("workload malformed: %d keys, %d value bytes", len(w.Keys), len(w.Value))
	}
	c := NewS3FIFO(500)
	Warm(c, w)
	if c.Len() == 0 {
		t.Error("warm-up cached nothing")
	}
	res := Replay(c, w, 2, 5000)
	if res.Ops != 10000 {
		t.Errorf("Ops = %d", res.Ops)
	}
	if res.Throughput() <= 0 {
		t.Error("throughput not measured")
	}
	if hr := res.HitRatio(); hr <= 0 || hr > 1 {
		t.Errorf("hit ratio = %v", hr)
	}
}

func TestReplayThreadsProduceSaneHitRatios(t *testing.T) {
	// The measured hit ratio should be roughly thread-count independent.
	w := NewZipfWorkload(10000, 100000, 1.0, 8, 11)
	hr := func(threads int) float64 {
		c := NewS3FIFO(1000)
		Warm(c, w)
		return Replay(c, w, threads, 50000/threads).HitRatio()
	}
	h1, h4 := hr(1), hr(4)
	if diff := h1 - h4; diff < -0.1 || diff > 0.1 {
		t.Errorf("hit ratio drifts with threads: 1->%.3f 4->%.3f", h1, h4)
	}
}

func BenchmarkCachesParallel(b *testing.B) {
	w := NewZipfWorkload(100000, 1<<20, 1.0, 64, 3)
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			c, _ := New(name, 100000/10)
			Warm(c, w)
			b.ReportAllocs()
			b.ResetTimer()
			var pos atomic64
			b.RunParallel(func(pb *testing.PB) {
				i := int(pos.add(1)) * 7919
				for pb.Next() {
					key := w.Keys[i&(1<<20-1)]
					i++
					if _, ok := c.Get(key); !ok {
						c.Set(key, w.Value)
					}
				}
			})
		})
	}
}

// atomic64 avoids importing sync/atomic twice in benchmarks.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.v += d
	return a.v
}
