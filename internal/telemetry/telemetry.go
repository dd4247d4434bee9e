// Package telemetry is the repository's stdlib-only metrics layer: atomic
// counters, scrape-time gauges, and log₂-bucketed latency histograms
// behind a registry that renders the Prometheus text exposition format.
//
// The design rule is that the serving hot path never pays for telemetry it
// did not ask for, and pays almost nothing when it did:
//
//   - Every instrument is nil-safe: methods on a nil *Counter or
//     *Histogram are no-ops, and a nil *Registry hands out nil instruments.
//     A metrics-off cache therefore carries exactly one nil check per op.
//   - Recording is a single atomic add (plus one more for a histogram's
//     sum). No locks, no allocations, no floating point on the hot path.
//   - Anything derivable at scrape time (queue occupancy, engine counters,
//     flash accounting) registers as a CounterFunc/GaugeFunc and costs the
//     hot path nothing at all.
//
// Rendering happens only when /metrics is scraped; see registry.go.
package telemetry

import (
	"math/bits"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// HeapObjectsBytes reads the bytes the process's heap holds in objects:
// live ones plus dead ones the collector has not swept yet. For scrape
// time only; beside the cache's charged bytes it gives heap per charged
// byte, the ratio that shows an engine holding more than it accounts for.
func HeapObjectsBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; a nil *Counter ignores updates, which is the metrics-off fast path.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the number of log₂ latency buckets: bucket i counts
// observations in [2^(i-1), 2^i) nanoseconds (bucket 0 counts
// sub-nanosecond readings), so 64 buckets cover every possible duration.
const histBuckets = 64

// Histogram is a fixed-size log₂ histogram of durations in nanoseconds.
// Recording is a bit-length plus two atomic adds: no allocations, no
// floating point, safe to keep per-goroutine on a benchmark hot path and
// merge afterwards. The counters use the package-function atomics rather
// than the atomic types so the struct stays freely copyable once its
// writers have quiesced (benchmark results embed one by value).
//
// A nil *Histogram ignores observations.
type Histogram struct {
	counts [histBuckets]uint64
	sumNs  uint64
}

// bucketOf returns the bucket index for a duration.
func bucketOf(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	return bits.Len64(uint64(ns))
}

// Observe records one duration. Negative durations (clock steps) count as
// zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	atomic.AddUint64(&h.counts[bits.Len64(uint64(ns))], 1)
	atomic.AddUint64(&h.sumNs, uint64(ns))
}

// Merge adds o's counts into h.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := range h.counts {
		atomic.AddUint64(&h.counts[i], atomic.LoadUint64(&o.counts[i]))
	}
	atomic.AddUint64(&h.sumNs, atomic.LoadUint64(&o.sumNs))
}

// snapshot returns an atomically read copy of the buckets and sum. The
// buckets are read individually, so a snapshot taken mid-update may be
// torn across buckets — each bucket is still exact, which is all the
// exposition format promises.
func (h *Histogram) snapshot() (counts [histBuckets]uint64, sumNs uint64) {
	for i := range h.counts {
		counts[i] = atomic.LoadUint64(&h.counts[i])
	}
	return counts, atomic.LoadUint64(&h.sumNs)
}

// Quantile returns the duration at quantile q in [0, 1], reported as the
// upper bound of the bucket containing it (conservative by at most 2×, the
// histogram's resolution). Returns 0 when empty or nil.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	counts, _ := h.snapshot()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen > rank {
			if i >= histBuckets-1 {
				return time.Duration(int64(^uint64(0) >> 1))
			}
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return 0
}
