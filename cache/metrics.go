// Metrics: the facade's telemetry wiring. The design keeps the hot path
// clean — engines maintain cheap always-on atomic counters regardless of
// configuration, and registering a telemetry.Registry only adds
// scrape-time readers (CounterFunc/GaugeFunc) over those atomics. The
// only live instruments are the per-op latency histograms and the
// slow-op counter, and latency timing is sampled 1-in-64 unless the
// slow-op log is enabled (which needs every op timed to catch outliers).
// With Config.Metrics nil and no slow-op threshold, c.metrics is nil and
// every operation pays exactly one nil check.
package cache

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"s3fifo/internal/telemetry"
)

// opSampleMask samples 1 in 64 operations for latency timing when the
// slow-op log is off. The histograms therefore hold sampled counts; the
// distribution shape and quantiles are unbiased. The period is set by
// the cost of the clock: two time.Now calls (~130ns on the benchmark
// host) every 64 ops is ~2ns per op against a ~140ns cache hit.
const opSampleMask = 63

// cacheMetrics carries the facade's live instruments. A nil *cacheMetrics
// is valid and disables all timing (the metrics-off fast path).
type cacheMetrics struct {
	opGet    *telemetry.Histogram
	opSet    *telemetry.Histogram
	opDelete *telemetry.Histogram
	slowOps  *telemetry.Counter

	everyOp       bool // slow-op log on: time every operation
	slowThreshold time.Duration
	slowLog       func(line string)
}

// timed reports whether this operation should be timed, for operations
// with no always-on counter to sample against (Delete). Get and set
// sample against the hit/miss/set counters instead — see the facade —
// because even a per-goroutine PRNG draw per op is a few percent of a
// ~140ns cache hit; deletes are rare enough not to care.
func (m *cacheMetrics) timed() bool {
	return m != nil && (m.everyOp || rand.Uint64()&opSampleMask == 0)
}

// end records a timed operation and feeds the slow-op log; callers
// invoke it only when timed() said yes (start non-zero). tier is where
// the lookup was ultimately served from ("dram", "flash", "miss";
// mutations report "dram").
func (m *cacheMetrics) end(op, key string, start time.Time, tier string) {
	d := time.Since(start)
	switch op {
	case "get":
		m.opGet.Observe(d)
	case "set":
		m.opSet.Observe(d)
	default:
		m.opDelete.Observe(d)
	}
	if m.slowThreshold > 0 && d >= m.slowThreshold {
		m.slowOps.Inc()
		if m.slowLog != nil {
			// Key is logged as a hash: slow-op lines may end up in shared
			// logs and cache keys often embed user identifiers.
			m.slowLog(fmt.Sprintf("slow-op op=%s key=%016x dur=%s tier=%s",
				op, hashString(key), d, tier))
		}
	}
}

// newCacheMetrics builds the live instruments and registers the full
// metric catalog. reg may be nil (slow-op log without a registry): every
// instrument it hands out is a no-op, and the scrape-time registrations
// below no-op too.
func newCacheMetrics(c *Cache, cfg Config) *cacheMetrics {
	reg := cfg.Metrics
	m := &cacheMetrics{
		everyOp:       cfg.SlowOpThreshold > 0,
		slowThreshold: cfg.SlowOpThreshold,
		slowLog:       cfg.SlowOpLog,
		slowOps: reg.Counter("cache_slow_ops_total",
			"Operations slower than the configured slow-op threshold.", nil),
	}
	opHelp := "Latency of cache operations, sampled 1-in-64 (every op when the slow-op log is enabled)."
	m.opGet = reg.Histogram("cache_op_duration_seconds", opHelp,
		telemetry.Labels{{Key: "op", Value: "get"}})
	m.opSet = reg.Histogram("cache_op_duration_seconds", opHelp,
		telemetry.Labels{{Key: "op", Value: "set"}})
	m.opDelete = reg.Histogram("cache_op_duration_seconds", opHelp,
		telemetry.Labels{{Key: "op", Value: "delete"}})

	registerCacheFuncs(reg, c)
	return m
}

// reasonReaders maps the eviction-flow taxonomy (DESIGN.md §9: Algorithm
// 1's branches plus the API-driven removals) to EngineCounters fields.
var reasonReaders = []struct {
	reason string
	read   func(EngineCounters) uint64
}{
	{"small_queue_evict", func(ec EngineCounters) uint64 { return ec.SmallQueueEvict }},
	{"main_queue_evict", func(ec EngineCounters) uint64 { return ec.MainQueueEvict }},
	{"ghost_reinsert", func(ec EngineCounters) uint64 { return ec.GhostReinsert }},
	{"ttl_expire", func(ec EngineCounters) uint64 { return ec.TTLExpire }},
	{"explicit_delete", func(ec EngineCounters) uint64 { return ec.ExplicitDelete }},
	{"oversized_overwrite", func(ec EngineCounters) uint64 { return ec.OversizedOverwrite }},
}

// registerCacheFuncs registers the scrape-time families: every read goes
// through the cache's always-on counters, so these cost nothing between
// scrapes.
func registerCacheFuncs(reg *telemetry.Registry, c *Cache) {
	if reg == nil {
		return
	}
	lbl := func(k, v string) telemetry.Labels { return telemetry.Labels{{Key: k, Value: v}} }

	reg.CounterFunc("cache_hits_total", "Cache hits by serving tier.",
		lbl("tier", "dram"), func() uint64 { h, _, _ := c.ops.sum(); return h })
	reg.CounterFunc("cache_hits_total", "Cache hits by serving tier.",
		lbl("tier", "flash"), func() uint64 {
			if c.tier == nil {
				return 0
			}
			return c.tier.t.Stats().Hits
		})
	reg.CounterFunc("cache_misses_total", "Lookups missing every tier.",
		nil, func() uint64 { _, m, _ := c.ops.sum(); return m })
	reg.CounterFunc("cache_sets_total", "Set and SetWithTTL calls.",
		nil, func() uint64 { _, _, n := c.ops.sum(); return n })

	// Anti-stampede families (DESIGN.md §14).
	reg.CounterFunc("cache_stale_served_total",
		"GetEx lookups answered with an expired value inside the grace window.",
		nil, func() uint64 { return c.staleServed.Load() })
	reg.CounterFunc("cache_negative_hits_total",
		"Misses short-circuited by a confirmed-missing tombstone (no tier I/O).",
		nil, func() uint64 { return c.negativeHits.Load() })
	reg.CounterFunc("cache_negative_sets_total",
		"SetNegative calls recording a confirmed-missing key.",
		nil, func() uint64 { return c.negativeSets.Load() })
	reg.GaugeFunc("cache_negative_entries",
		"Confirmed-missing tombstones currently held.",
		nil, func() float64 { return float64(c.neg.entries.Load()) })

	evHelp := "Entry removals and queue transitions by cause; see DESIGN.md §9 for the mapping onto S3-FIFO's Algorithm 1."
	for _, rr := range reasonReaders {
		read := rr.read
		reg.CounterFunc("cache_eviction_flow_total", evHelp,
			lbl("reason", rr.reason), func() uint64 { return read(c.engine.Counters()) })
	}

	reg.GaugeFunc("cache_entries", "Resident DRAM entries.",
		nil, func() float64 { return float64(c.engine.Len()) })
	reg.GaugeFunc("cache_used_bytes", "Resident DRAM bytes (keys + values).",
		nil, func() float64 { return float64(c.engine.Used()) })
	reg.GaugeFunc("cache_capacity_bytes", "Configured DRAM capacity.",
		nil, func() float64 { return float64(c.engine.Capacity()) })
	reg.GaugeFunc("process_heap_objects_bytes",
		"Heap bytes in objects, process-wide; over cache_used_bytes it is the heap held per charged byte.",
		nil, func() float64 { return float64(telemetry.HeapObjectsBytes()) })

	// Queue occupancy samples under engine locks — scrape-time only.
	qbHelp := "S3-FIFO queue occupancy in bytes."
	reg.GaugeFunc("cache_queue_bytes", qbHelp, lbl("queue", "small"),
		func() float64 { return float64(c.engine.Occupancy().SmallBytes) })
	reg.GaugeFunc("cache_queue_bytes", qbHelp, lbl("queue", "main"),
		func() float64 { return float64(c.engine.Occupancy().MainBytes) })
	qeHelp := "S3-FIFO queue occupancy in entries (the ghost queue holds only fingerprints)."
	reg.GaugeFunc("cache_queue_entries", qeHelp, lbl("queue", "small"),
		func() float64 { return float64(c.engine.Occupancy().SmallLen) })
	reg.GaugeFunc("cache_queue_entries", qeHelp, lbl("queue", "main"),
		func() float64 { return float64(c.engine.Occupancy().MainLen) })
	reg.GaugeFunc("cache_queue_entries", qeHelp, lbl("queue", "ghost"),
		func() float64 { return float64(c.engine.Occupancy().GhostLen) })

	if c.tier != nil {
		registerFlashFuncs(reg, c)
	}
}

// registerFlashFuncs registers the second-tier families (only when one
// is configured, so a DRAM-only /metrics page isn't padded with zero
// series). The cache_flash_* names are historical — they describe
// whichever tier kind is configured.
func registerFlashFuncs(reg *telemetry.Registry, c *Cache) {
	t := c.tier
	lbl := func(v string) telemetry.Labels { return telemetry.Labels{{Key: "result", Value: v}} }

	demHelp := "DRAM evictions offered to the flash tier: written (new flash write), clean (valid flash copy already present), or declined by admission."
	reg.CounterFunc("cache_flash_demotions_total", demHelp, lbl("written"),
		func() uint64 { return atomic.LoadUint64(&t.demoted) })
	reg.CounterFunc("cache_flash_demotions_total", demHelp, lbl("clean"),
		func() uint64 { return atomic.LoadUint64(&t.demotedClean) })
	reg.CounterFunc("cache_flash_demotions_total", demHelp, lbl("declined"),
		func() uint64 { return atomic.LoadUint64(&t.declined) })
	reg.CounterFunc("cache_flash_demotions_total", demHelp, lbl("degraded"),
		func() uint64 { return atomic.LoadUint64(&t.dropped) })
	reg.CounterFunc("cache_flash_write_through_total",
		"Sets written through to flash by ghost admission.",
		nil, func() uint64 { return atomic.LoadUint64(&t.writeThrough) })
	reg.CounterFunc("cache_flash_promotions_total",
		"Flash hits promoted back into DRAM.",
		nil, func() uint64 { return c.promotions.Load() })
	reg.CounterFunc("cache_flash_bytes_written_total",
		"Bytes written to the second tier (write-amplification numerator).",
		nil, func() uint64 { return t.t.Stats().BytesWritten })
	reg.CounterFunc("cache_flash_gc_bytes_total",
		"Live bytes rewritten by tier reclamation/compaction.",
		nil, func() uint64 { return t.t.Stats().GCBytes })
	reg.GaugeFunc("cache_flash_segments", "Tier segment/bucket files on disk.",
		nil, func() float64 { return float64(t.t.Stats().Segments) })
	reg.GaugeFunc("cache_flash_entries", "Entries indexed in the second tier.",
		nil, func() float64 { return float64(t.t.Stats().Entries) })

	// Breaker health (DESIGN.md §10): alert on cache_flash_degraded == 1
	// or a rising trip rate.
	reg.CounterFunc("cache_flash_errors_total",
		"Flash I/O errors observed, including background probes.",
		nil, func() uint64 { return t.br.errors.Load() })
	reg.GaugeFunc("cache_flash_degraded",
		"1 while the flash breaker is open and the cache serves DRAM-only.",
		nil, func() float64 {
			if t.available() {
				return 0
			}
			return 1
		})
	evLbl := func(v string) telemetry.Labels { return telemetry.Labels{{Key: "event", Value: v}} }
	brHelp := "Flash breaker state transitions: trip (degraded) and restore (healthy)."
	reg.CounterFunc("cache_flash_breaker_events_total", brHelp, evLbl("trip"),
		func() uint64 { return t.br.trips.Load() })
	reg.CounterFunc("cache_flash_breaker_events_total", brHelp, evLbl("restore"),
		func() uint64 { return t.br.restores.Load() })
}
