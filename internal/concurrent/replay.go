package concurrent

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"s3fifo/internal/telemetry"
	"s3fifo/internal/workload"
)

// New constructs a concurrent cache by name.
func New(name string, capacity int) (Cache, error) {
	switch name {
	case "lru-strict":
		return NewLRUStrict(capacity), nil
	case "lru-optimized":
		return NewLRUOptimized(capacity), nil
	case "tinylfu":
		return NewTinyLFU(capacity), nil
	case "segcache":
		return NewSegcache(capacity), nil
	case "s3fifo":
		return NewS3FIFO(capacity), nil
	default:
		return nil, fmt.Errorf("concurrent: unknown cache %q", name)
	}
}

// Names returns the available concurrent cache names, sorted.
func Names() []string {
	names := []string{"lru-strict", "lru-optimized", "tinylfu", "segcache", "s3fifo"}
	sort.Strings(names)
	return names
}

// ReplayResult reports one closed-loop replay measurement.
type ReplayResult struct {
	Cache   string
	Threads int
	// Shards is the queue-shard count for caches that expose one
	// (concurrent S3-FIFO); 0 when not applicable.
	Shards  int
	Ops     uint64
	Elapsed time.Duration
	Hits    uint64
	// Latency holds sampled per-op latencies (one op in latSamplePeriod).
	Latency telemetry.Histogram
}

// P50 returns the sampled median per-op latency.
func (r ReplayResult) P50() time.Duration { return r.Latency.Quantile(0.50) }

// P99 returns the sampled 99th-percentile per-op latency.
func (r ReplayResult) P99() time.Duration { return r.Latency.Quantile(0.99) }

// P999 returns the sampled 99.9th-percentile per-op latency.
func (r ReplayResult) P999() time.Duration { return r.Latency.Quantile(0.999) }

// Throughput returns million operations per second.
func (r ReplayResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e6
}

// HitRatio returns the measured hit ratio.
func (r ReplayResult) HitRatio() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Ops)
}

// Workload is the prepared request stream for the throughput benchmark:
// the §5.3 setup uses a synthetic Zipf (α=1.0) trace and pre-generated
// values so the benchmark isolates cache operations.
type Workload struct {
	Keys  []uint64
	Value []byte
}

// NewZipfWorkload builds a benchmark workload of n requests over `objects`
// distinct keys with the given skew, and a shared payload of valueSize
// bytes.
func NewZipfWorkload(objects, n int, alpha float64, valueSize int, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	z := workload.NewZipf(rng, alpha, objects)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(z.Sample())
	}
	value := make([]byte, valueSize)
	rng.Read(value)
	return &Workload{Keys: keys, Value: value}
}

// warmStride is how many requests of the workload the Warm workers replay
// between two barriers.
const warmStride = 1 << 11

// Warm pre-populates the cache by replaying the workload once (on-demand
// fill), so measurements start from a steady state. The replay is
// parallelized across workers that split the keys by residue — each key is
// owned by exactly one worker, so the per-key get-then-set never races
// with itself — and they advance through the workload a stride at a time,
// in step. A worker that ran ahead and finished would leave its hot keys
// untouched while the others kept inserting their cold ones, and the
// parallel fill would lose a hot head the serial one keeps; a stride of
// cold inserts is too short to do that.
func Warm(c Cache, w *Workload) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 16 {
		workers = 16
	}
	if workers < 2 || len(w.Keys) < 1<<14 {
		warmResidue(c, w.Keys, w.Value, 0, 1)
		return
	}
	for start := 0; start < len(w.Keys); start += warmStride {
		keys := w.Keys[start:min(start+warmStride, len(w.Keys))]
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				warmResidue(c, keys, w.Value, uint64(i), uint64(workers))
			}(i)
		}
		wg.Wait()
	}
}

// warmResidue fills those of keys that are r modulo m.
func warmResidue(c Cache, keys []uint64, value []byte, r, m uint64) {
	for _, k := range keys {
		if k%m != r {
			continue
		}
		if _, ok := c.Get(k); !ok {
			c.Set(k, value)
		}
	}
}

// latSamplePeriod is the per-op latency sampling period: one op in 16 is
// timed. Sampling keeps the two clock reads off most iterations so the
// throughput measurement stays honest while the histogram still sees
// thousands of samples per thread.
const latSamplePeriod = 16

// sharded is implemented by caches whose miss path is split over
// independent queue shards.
type sharded interface{ Shards() int }

// Replay runs the closed-loop benchmark: `threads` goroutines each iterate
// over the workload (at distinct offsets so they do not lockstep),
// performing Get and filling misses with Set, until every goroutine has
// executed opsPerThread operations. It returns aggregate throughput plus a
// sampled per-op latency histogram.
func Replay(c Cache, w *Workload, threads, opsPerThread int) ReplayResult {
	var hits atomic.Uint64
	hists := make([]telemetry.Histogram, threads)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(offset int, h *telemetry.Histogram) {
			defer wg.Done()
			n := len(w.Keys)
			localHits := uint64(0)
			pos := offset % n
			for i := 0; i < opsPerThread; i++ {
				key := w.Keys[pos]
				pos++
				if pos == n {
					pos = 0
				}
				if i%latSamplePeriod == 0 {
					t0 := time.Now()
					if _, ok := c.Get(key); ok {
						localHits++
					} else {
						c.Set(key, w.Value)
					}
					h.Observe(time.Since(t0))
					continue
				}
				if _, ok := c.Get(key); ok {
					localHits++
				} else {
					c.Set(key, w.Value)
				}
			}
			hits.Add(localHits)
		}(t*len(w.Keys)/max(threads, 1), &hists[t])
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := ReplayResult{
		Cache:   c.Name(),
		Threads: threads,
		Ops:     uint64(threads) * uint64(opsPerThread),
		Elapsed: elapsed,
		Hits:    hits.Load(),
	}
	if s, ok := c.(sharded); ok {
		res.Shards = s.Shards()
	}
	for i := range hists {
		res.Latency.Merge(&hists[i])
	}
	return res
}
