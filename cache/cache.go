// Package cache is the public API of this repository: a concurrency-safe,
// string-keyed, byte-valued cache library built on the S3-FIFO eviction
// algorithm from "FIFO queues are all you need for cache eviction"
// (SOSP '23), with every baseline algorithm from the paper's evaluation
// available behind the same interface.
//
// The facade delegates residency to a pluggable eviction Engine
// (Config.Engine) and layers TTLs, snapshots, statistics, and the
// optional flash tier on top. Two engines ship:
//
//   - "concurrent" (default; what s3cached serves): the lock-free S3-FIFO
//     from internal/concurrent — hits take no locks (hash lookup plus one
//     capped atomic frequency bump), only misses serialize on a queue
//     shard. It implements only the s3fifo policy.
//   - "policy": mutex-per-shard, wrapping any of the ~25 eviction
//     algorithms behind Config.Policy; naming one but s3fifo selects it.
//
// Basic usage:
//
//	c, err := cache.New(cache.Config{MaxBytes: 64 << 20})
//	if err != nil { ... }
//	c.Set("user:42", profileBytes)
//	if v, ok := c.Get("user:42"); ok { ... }
//
// Choose a different eviction algorithm ("lru", "arc", "tinylfu", ...)
// with Config.Policy; cache.Policies lists the options. Choose the
// serving engine with Config.Engine; cache.Engines lists the options.
package cache

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"s3fifo/internal/core"
	"s3fifo/internal/faultfs"
	"s3fifo/internal/policy"
	"s3fifo/internal/sketch"
	"s3fifo/internal/telemetry"
)

// Config configures a Cache.
type Config struct {
	// MaxBytes is the total capacity across all shards, counting
	// len(key) + len(value) per entry. Required.
	MaxBytes uint64
	// Engine selects the serving engine, "concurrent" or "policy"; empty
	// means "concurrent" unless Policy names one only "policy" implements.
	// See Engines and the package comment for the tradeoff.
	Engine string
	// Policy selects the eviction algorithm. Default "s3fifo".
	// See Policies for the full list. The "concurrent" engine implements
	// only "s3fifo".
	Policy string
	// Shards is the number of independent shards, a power of two (default
	// 16 on the policy engine, a GOMAXPROCS-based count on the concurrent
	// one). More shards: less lock contention, less exact eviction order.
	Shards int
	// OnEvict, when set, is called after an entry leaves the cache due to
	// eviction (not Delete). With a flash tier it fires only when the
	// entry leaves the cache entirely (declined by flash admission), not
	// on demotion to flash.
	//
	// Callback semantics are the same on both engines: the engine reports
	// evictions while holding internal locks, so the facade defers the
	// callback to a queue and drains it with no locks held, on whichever
	// goroutine's Set (or flash promotion) triggered or next observes the
	// eviction. The callback may therefore safely call back into the
	// cache (Get/Set/Delete); the only guarantee forfeited is that the
	// callback runs before the triggering Set returns on *some other*
	// goroutine's behalf under concurrency. Within a single goroutine,
	// callbacks for evictions caused by a Set are delivered before that
	// Set returns.
	OnEvict func(key string, value []byte)

	// The second tier under DRAM is worked out from its inputs:
	// SecondTier when set, else the "remote" tier when TierAddr is, else
	// the "flash" tier when FlashDir is, else none. See tier.go for the
	// contract.
	//
	// TierAddr, when non-empty, adds the "remote" tier: a peer s3cached
	// node over the binary protocol.
	TierAddr string
	// SecondTier, when non-nil, is an explicit Tier instance to use
	// instead of constructing one from TierAddr or FlashDir. The cache
	// takes ownership (Close closes it). Intended for tests and embedders
	// with custom backends.
	SecondTier Tier

	// FlashDir, when non-empty, adds a flash tier: a log-structured
	// on-disk store (internal/flash) holding entries demoted from DRAM.
	// Flash hits transparently promote back into DRAM. The directory is
	// created if missing; reopening a cache with the same directory
	// recovers the flash contents (manifest fast path after a clean
	// shutdown, checksummed segment scan otherwise).
	FlashDir string
	// FlashBytes caps the flash tier's footprint. Required with FlashDir;
	// for "remote" it is only the ghost admission policy's sizing hint
	// (default 256 MiB).
	FlashBytes uint64
	// FlashSegmentBytes overrides the flash segment file size (default
	// 4 MiB; see flash.Options).
	FlashSegmentBytes uint64
	// Admission selects which DRAM-evicted entries are written to flash
	// — every write consumes flash lifetime. One of "all" (default),
	// "prob" (admit with probability 0.2), "freq" (admit entries hit at
	// least once while resident), or "ghost" (freq plus a ghost queue of
	// declined entries: a re-Set while remembered writes through, the
	// paper's §5.4 filter against a real ghost queue). See Admissions.
	Admission string
	// FlashFS overrides the filesystem under the flash tier. nil means
	// the real OS filesystem; tests substitute a faultfs.Injector to
	// drive the tier's failure paths deterministically.
	FlashFS faultfs.FS
	// FlashBreakerThreshold is the number of consecutive flash I/O
	// errors that trip the tier into degraded DRAM-only mode (demotions
	// dropped, flash reads bypassed, background retry with backoff; see
	// DESIGN.md §10). 0 means the default of 3; negative disables the
	// breaker (errors are still counted, the cache never degrades).
	FlashBreakerThreshold int
	// FlashRetryMin and FlashRetryMax bound the exponential backoff of
	// the background probe that retries a degraded flash tier. Defaults
	// 100ms and 30s.
	FlashRetryMin time.Duration
	FlashRetryMax time.Duration

	// Metrics, when non-nil, registers the cache's metric catalog with
	// the registry: hit/miss/set counters, the eviction-flow taxonomy,
	// queue occupancy gauges, flash-tier counters, and sampled per-op
	// latency histograms (see DESIGN.md §9). Nearly everything is read at
	// scrape time from counters the cache maintains anyway; when Metrics
	// is nil (and no slow-op log is configured) the hot path pays one nil
	// check per operation.
	Metrics *telemetry.Registry
	// SlowOpThreshold, when positive, times every operation (disabling
	// 1-in-64 latency sampling) and reports those at or above the
	// threshold through SlowOpLog and the cache_slow_ops_total counter.
	SlowOpThreshold time.Duration
	// SlowOpLog receives one structured line per slow operation:
	// "slow-op op=get key=<hash> dur=1.2ms tier=flash". Keys are logged
	// hashed, not verbatim. Ignored unless SlowOpThreshold is positive;
	// must be safe for concurrent use.
	SlowOpLog func(line string)
}

// Stats are cumulative counters since the cache was created.
type Stats struct {
	// Hits counts lookups served from either tier: DRAMHits + FlashHits.
	// Stale serves (GetEx within the grace window) are counted separately
	// in StaleServed — they are neither hits nor misses.
	Hits      uint64
	Misses    uint64
	Sets      uint64
	Evictions uint64
	Expired   uint64

	// Anti-stampede counters. StaleServed counts GetEx lookups answered
	// with an expired value inside the grace window; NegativeHits counts
	// misses short-circuited by a confirmed-missing tombstone (no tier
	// I/O, also counted in Misses); NegativeSets counts SetNegative
	// calls; NegativeEntries is the tombstone table's current size.
	StaleServed     uint64
	NegativeHits    uint64
	NegativeSets    uint64
	NegativeEntries int64

	// Per-tier breakdown; all flash fields are zero without a second
	// tier. The Flash* names are historical — they describe whichever
	// tier kind is configured (TierKind says which).
	DRAMHits  uint64
	FlashHits uint64
	// TierKind is the active second tier's kind ("flash", "remote", or
	// a SecondTier's own), empty without one.
	TierKind string
	// SnapshotUnixNano is the save time of the snapshot this cache was
	// restored from (see Load/LoadFile), or of the last Save; 0 when
	// neither has happened. The admin surface derives snapshot age from
	// it.
	SnapshotUnixNano int64
	// Demotions counts DRAM evictions written to flash;
	// DemotionsDeclined those the admission policy rejected.
	Demotions         uint64
	DemotionsDeclined uint64
	// Promotions counts flash hits copied back into DRAM.
	Promotions uint64
	// FlashBytesWritten is every byte appended to the flash log (the
	// write-amplification numerator); FlashGCBytes is the subset
	// rewritten by segment reclamation.
	FlashBytesWritten uint64
	FlashGCBytes      uint64
	FlashSegments     uint64
	FlashEntries      uint64

	// Flash health (DESIGN.md §10). FlashErrors counts every flash I/O
	// error observed, including background probes; FlashDegraded is true
	// while the breaker is open and the cache is serving DRAM-only.
	// DemotionsDegraded counts DRAM evictions dropped (not written to
	// flash) because the tier was degraded.
	FlashErrors          uint64
	FlashDegraded        bool
	FlashBreakerTrips    uint64
	FlashBreakerRestores uint64
	DemotionsDegraded    uint64
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any lookups.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a thread-safe cache over a pluggable eviction engine,
// optionally backed by a flash tier (Config.FlashDir). Create one with
// New; call Close when a flash tier is configured.
type Cache struct {
	engine  Engine
	tier    *secondTier // nil without a second tier
	onEvict func(key string, value []byte)
	metrics *cacheMetrics // nil unless Config.Metrics or SlowOpThreshold

	// closeMu makes Close mutually exclusive with snapshot Save: Save
	// holds it shared for the duration of its engine walk, Close takes it
	// exclusively before tearing the tier down, and Save after Close
	// returns ErrClosed instead of racing a closing store.
	closeMu sync.RWMutex
	closed  bool

	// snapshotAt is the save time (unix nanoseconds) of the snapshot this
	// cache was restored from, or of the last Save; 0 when neither.
	snapshotAt atomic.Int64

	// Deferred OnEvict deliveries: engines report evictions under their
	// internal locks, so callbacks queue here and drain lock-free.
	evictMu sync.Mutex
	evictQ  []evictedPair

	// The negative-tombstone table: always present, free while empty.
	neg *negCache

	ops          opCounters // hits, misses, sets: striped, see counters.go
	promotions   atomic.Uint64
	staleServed  atomic.Uint64
	negativeHits atomic.Uint64
	negativeSets atomic.Uint64
}

type evictedPair struct {
	key   string
	value []byte
}

// Policies returns the available eviction algorithm names, sorted.
func Policies() []string {
	names := policy.Names()
	for n := range core.Factories() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New creates a Cache. It returns an error for a zero capacity, an
// unknown policy or engine name, or an engine/policy mismatch.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxBytes == 0 {
		return nil, fmt.Errorf("cache: MaxBytes must be positive")
	}
	c := &Cache{onEvict: cfg.OnEvict, neg: newNegCache()}
	tier, err := newSecondTier(cfg)
	if err != nil {
		return nil, err
	}
	c.tier = tier

	// The engine gets an eviction hook only when someone listens: the
	// second tier (demotion point) or the user's OnEvict. The hook runs
	// under engine locks — it demotes inline (the tier has its own lock,
	// ordered strictly after the engine's) and defers user callbacks.
	var hook func(EngineEviction)
	if tier != nil || cfg.OnEvict != nil {
		hook = c.noteEviction
	}
	eng, err := newEngine(cfg, hook)
	if err != nil {
		if tier != nil {
			tier.t.Close()
		}
		return nil, err
	}
	c.engine = eng
	if cfg.Metrics != nil || cfg.SlowOpThreshold > 0 {
		c.metrics = newCacheMetrics(c, cfg)
	}
	return c, nil
}

// Close releases the second tier (stopping the breaker's background
// prober, then closing the backend — the flash tier syncs its active
// segment and writes its index manifest for the next Open's fast
// recovery). Close excludes any in-flight snapshot Save (it waits for
// Saves to finish; Saves started after return ErrClosed). Closing a
// DRAM-only cache is a harmless no-op beyond marking it closed.
func (c *Cache) Close() error {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.tier == nil {
		return nil
	}
	c.tier.br.close()
	return c.tier.t.Close()
}

// FlashDegraded reports whether the second tier is currently degraded
// (breaker open, serving DRAM-only). Always false without one.
func (c *Cache) FlashDegraded() bool {
	return c.tier != nil && !c.tier.available()
}

// TierKind returns the active second tier's kind ("flash", "remote", or
// a SecondTier's own), or "" without one.
func (c *Cache) TierKind() string {
	if c.tier == nil {
		return ""
	}
	return c.tier.t.Kind()
}

// Engine returns the name of the serving engine ("policy" or
// "concurrent").
func (c *Cache) Engine() string { return c.engine.Name() }

// noteEviction is the engine's eviction hook. It runs under engine locks:
// the flash demotion decision happens inline (this ordering is what makes
// a Set's flash tombstone supersede the demoted copy — see tiered.go),
// while user callbacks are queued and drained later with no locks held.
func (c *Cache) noteEviction(ev EngineEviction) {
	demoted := false
	// A victim whose TTL has already passed is never worth a tier write.
	if c.tier != nil && !expiredAt(ev.ExpiresAt, now().UnixNano()) {
		demoted = c.tier.demote(ev)
	}
	if c.onEvict != nil && !demoted {
		c.evictMu.Lock()
		c.evictQ = append(c.evictQ, evictedPair{key: ev.Key, value: ev.Value})
		c.evictMu.Unlock()
	}
}

// drainEvictions delivers queued OnEvict callbacks with no locks held, so
// a callback may freely call back into the cache.
func (c *Cache) drainEvictions() {
	if c.onEvict == nil {
		return
	}
	for {
		c.evictMu.Lock()
		if len(c.evictQ) == 0 {
			c.evictMu.Unlock()
			return
		}
		q := c.evictQ
		c.evictQ = nil
		c.evictMu.Unlock()
		for _, p := range q {
			c.onEvict(p.key, p.value)
		}
	}
}

// hashString is FNV-1a folded through the repository's 64-bit mixer. The
// facade uses it for flash admission IDs; the policy engine reuses it for
// policy IDs so a re-inserted key presents the same ID to the ghost
// queue.
func hashString(key string) uint64 { return sketch.Hash(sketch.FNV1a(key), 0xCAFE) }

// Get returns the value stored for key. A lookup counts as a cache hit or
// miss in Stats and feeds the eviction engine's access tracking. With a
// flash tier, a DRAM miss falls through to the flash index; a flash hit
// promotes the entry back into DRAM (lazy promotion — the flash copy
// stays valid, so a later re-demotion costs no second write).
func (c *Cache) Get(key string) ([]byte, bool) {
	// Latency sampling rides the always-on hit/miss counters (plain
	// loads of this goroutine's stripe) instead of a dedicated op counter
	// or PRNG draw — at ~40ns per hit, either of those alone is a
	// measurable tax. hits+misses advances once per Get, so this is an
	// exact 1-in-64 of a goroutine's gets (flash hits don't advance it and
	// sample at whatever phase the counter is stuck on; they're disk-bound,
	// so the timing bias is noise).
	ops := c.ops.local()
	m := c.metrics
	var start time.Time
	if m != nil && (m.everyOp || (ops.dramHits.Load()+ops.misses.Load())&opSampleMask == 0) {
		start = time.Now()
	}
	if v, ok := c.engine.Get(key); ok {
		ops.dramHits.Add(1)
		if !start.IsZero() {
			c.metrics.end("get", key, start, "dram")
		}
		return v, true
	}
	// A confirmed-missing tombstone answers before any tier I/O: the
	// negative cache exists precisely to keep repeated misses for absent
	// keys off the slower layers.
	if c.neg.hit(key, now().UnixNano()) {
		c.negativeHits.Add(1)
		ops.misses.Add(1)
		if !start.IsZero() {
			c.metrics.end("get", key, start, "miss")
		}
		return nil, false
	}
	if c.tier == nil || !c.tier.available() {
		// No second tier, or the tier is degraded: a degraded tier is
		// bypassed entirely — its index may hold copies superseded during
		// the outage, and the backend under it is presumed sick.
		ops.misses.Add(1)
		if !start.IsZero() {
			c.metrics.end("get", key, start, "miss")
		}
		return nil, false
	}
	// The tier lookup runs outside any engine lock: it is disk or
	// network I/O. Its outcome feeds the breaker — a run of read errors
	// (a dead disk, an unreachable peer) must trip degraded mode even if
	// no demotion happens to be in flight.
	//
	// The facade re-judges the returned expiry against the shared clock
	// (expiredAt): a key that expired while its demotion was in flight
	// reaches the tier with its deadline intact, and the tier backend's
	// own expiry handling must not be the only defense (a mock tier, or a
	// backend with a skewed clock, would otherwise serve it — see
	// TestExpiryBoundary*).
	v, expires, ok, err := c.tier.t.Get(key)
	c.tier.br.note(err)
	if !ok || expiredAt(expires, now().UnixNano()) {
		ops.misses.Add(1)
		if !start.IsZero() {
			c.metrics.end("get", key, start, "miss")
		}
		return nil, false
	}
	c.promote(key, v, expires)
	if !start.IsZero() {
		c.metrics.end("get", key, start, "flash")
	}
	return v, true
}

// promote inserts a flash-hit value back into DRAM. Add, not Set: a
// resident entry means a concurrent Set won the race and must not be
// clobbered by the older flash copy. The flash copy is left in place:
// until the key is Set again, the copies agree, and the next demotion is
// free. The key arrived on a lookup, so it is the caller's to reuse (see
// Engine): the engine gets a copy to keep.
func (c *Cache) promote(key string, value []byte, expires int64) {
	c.promotions.Add(1)
	c.engine.Add(strings.Clone(key), value, expires)
	c.drainEvictions()
}

// LookupState classifies a GetEx outcome.
type LookupState int

const (
	// LookupMiss: no usable value; the caller should consult the backend.
	LookupMiss LookupState = iota
	// LookupHit: a fresh value was returned.
	LookupHit
	// LookupStale: the value's TTL has passed but it is within the grace
	// window — usable for stale-while-revalidate serving while a refill
	// is in flight.
	LookupStale
	// LookupNegative: the key is tombstoned as confirmed-missing; the
	// caller should treat it as absent without consulting the backend.
	LookupNegative
)

// GetEx is Get with stale-while-revalidate semantics: an entry whose TTL
// passed no more than grace ago is returned with LookupStale instead of
// being reaped, and confirmed-missing keys (SetNegative) report
// LookupNegative without any tier I/O. Fresh lookups behave exactly like
// Get (hit counting, promotion, eviction-state access). An expired
// resident entry beyond the grace window is reaped and reported as a
// miss; the second tier is not consulted in that case, because a demoted
// copy carries the same deadline and cannot be fresher than the resident
// one.
func (c *Cache) GetEx(key string, grace time.Duration) ([]byte, LookupState) {
	ops := c.ops.local()
	nowNano := now().UnixNano()
	if v, exp, ok := c.engine.GetStale(key); ok {
		if !expiredAt(exp, nowNano) {
			ops.dramHits.Add(1)
			return v, LookupHit
		}
		if grace > 0 && !expiredAt(exp+int64(grace), nowNano) {
			c.staleServed.Add(1)
			return v, LookupStale
		}
		// Beyond grace: reap through the plain lookup path (which treats
		// the expired entry exactly as Get would) and report a miss.
		c.engine.Get(key)
		ops.misses.Add(1)
		return nil, LookupMiss
	}
	if c.neg.hit(key, nowNano) {
		c.negativeHits.Add(1)
		ops.misses.Add(1)
		return nil, LookupNegative
	}
	if c.tier == nil || !c.tier.available() {
		ops.misses.Add(1)
		return nil, LookupMiss
	}
	v, expires, ok, err := c.tier.t.Get(key)
	c.tier.br.note(err)
	if !ok || expiredAt(expires, now().UnixNano()) {
		ops.misses.Add(1)
		return nil, LookupMiss
	}
	c.promote(key, v, expires)
	return v, LookupHit
}

// SetNegative tombstones key as confirmed-missing for ttl: until it
// expires, lookups answer miss (LookupNegative from GetEx) without
// consulting the second tier. The tombstone lives in a small bounded
// side table — never in the eviction queues, never demoted to a second
// tier — and is cleared by any Set or Delete of the key. A non-positive
// ttl is a no-op.
func (c *Cache) SetNegative(key string, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	c.negativeSets.Add(1)
	c.neg.set(key, ttl, now().UnixNano())
}

// Set stores value under key, evicting other entries as needed. It
// returns false when the entry cannot be admitted (larger than a shard).
// Setting an existing key replaces its value and clears any TTL. With a
// flash tier, a Set supersedes any flash copy of the key, and the ghost
// admission policy may write the value through to flash (a re-Set of a
// recently declined key proves reuse).
func (c *Cache) Set(key string, value []byte) bool {
	return c.set(key, value, 0)
}

// set is the shared store path: engine insert, then flash supersession.
// The order matters — engines serialize the eviction hook for a key with
// Set/Delete of that key, so by the time engine.Set returns, no demotion
// of the old value can still be in flight, and the flash tombstone below
// settles last.
func (c *Cache) set(key string, value []byte, expiresAt int64) bool {
	// Sampled against this goroutine's set counter; see Get.
	n := c.ops.local().sets.Add(1)
	m := c.metrics
	var start time.Time
	if m != nil && (m.everyOp || n&opSampleMask == 0) {
		start = time.Now()
	}
	ok := c.engine.Set(key, value, expiresAt)
	// A stored value supersedes any confirmed-missing verdict.
	c.neg.clear(key)
	if c.tier != nil {
		if expiresAt == 0 {
			c.tier.onSet(key, hashString(key), value, ok)
		} else {
			// A TTL'd value never writes through; tombstone any stale tier
			// copy so the tier cannot serve past the expiry, even after a
			// restart. A later demotion carries the TTL into the tier
			// record.
			c.tier.invalidate(key)
		}
	}
	c.drainEvictions()
	if !start.IsZero() {
		c.metrics.end("set", key, start, "dram")
	}
	return ok
}

// Delete removes key from every tier and reports whether a live value
// was held: the engine's answer, or, when the engine held none, the
// second tier's Contains (the delete itself is unconditional — a tier may
// hold keys Contains cannot see, as the remote tier does by design). An
// entry whose TTL had passed but which was not yet reaped counts as not
// held. Delete does not fire OnEvict. The flash tier keys its index by
// hash (DESIGN §7): under a 64-bit collision with a key of the same length
// it reports held for a key it never stored.
func (c *Cache) Delete(key string) bool {
	var start time.Time
	if c.metrics.timed() {
		start = time.Now()
	}
	held := c.engine.Delete(key)
	c.neg.clear(key)
	if c.tier != nil {
		if !held && c.tier.available() {
			held = c.tier.t.Contains(key)
		}
		c.tier.invalidate(key)
	}
	if !start.IsZero() {
		c.metrics.end("delete", key, start, "dram")
	}
	return held
}

// Contains reports whether key is cached in either tier, without
// recording a hit or promoting. The flash tier answers from key hashes
// (DESIGN §7): under a 64-bit collision with a key of the same length it
// says yes for a key it never stored, and the next Get misses; no Get
// returns another key's value.
func (c *Cache) Contains(key string) bool {
	if c.engine.Contains(key) {
		return true
	}
	if c.tier != nil && c.tier.available() {
		return c.tier.t.Contains(key)
	}
	return false
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.engine.Len() }

// Sample returns up to max resident DRAM keys, hottest first when the
// engine tracks per-key frequency (the concurrent engine does; the
// policy engine reports Freq 0 in arbitrary order). This backs the
// server's KEYS command, which cluster warm-up uses to replay a joining
// node's working set.
func (c *Cache) Sample(max int) []KeySample { return c.engine.Sample(max) }

// Used returns the cached bytes (keys + values).
func (c *Cache) Used() uint64 { return c.engine.Used() }

// Capacity returns the configured capacity in bytes (summed over shards;
// rounding may make it slightly below Config.MaxBytes).
func (c *Cache) Capacity() uint64 { return c.engine.Capacity() }

// Stats returns cumulative counters aggregated over the engine and, when
// a flash tier is configured, the flash store.
func (c *Cache) Stats() Stats {
	var out Stats
	out.DRAMHits, out.Misses, out.Sets = c.ops.sum()
	ec := c.engine.Counters()
	out.Evictions = ec.SmallQueueEvict + ec.MainQueueEvict
	out.Expired = ec.TTLExpire
	out.Hits = out.DRAMHits
	out.StaleServed = c.staleServed.Load()
	out.NegativeHits = c.negativeHits.Load()
	out.NegativeSets = c.negativeSets.Load()
	out.NegativeEntries = c.neg.entries.Load()
	out.SnapshotUnixNano = c.snapshotAt.Load()
	if c.tier != nil {
		tst := c.tier.t.Stats()
		out.TierKind = c.tier.t.Kind()
		out.FlashHits = tst.Hits
		out.Hits += tst.Hits
		out.Demotions = atomic.LoadUint64(&c.tier.demoted)
		out.DemotionsDeclined = atomic.LoadUint64(&c.tier.declined)
		out.Promotions = c.promotions.Load()
		out.FlashBytesWritten = tst.BytesWritten
		out.FlashGCBytes = tst.GCBytes
		out.FlashSegments = tst.Segments
		out.FlashEntries = tst.Entries
		out.FlashErrors = c.tier.br.errors.Load()
		out.FlashDegraded = !c.tier.available()
		out.FlashBreakerTrips = c.tier.br.trips.Load()
		out.FlashBreakerRestores = c.tier.br.restores.Load()
		out.DemotionsDegraded = atomic.LoadUint64(&c.tier.dropped)
	}
	return out
}

// entrySize is the charged size of an entry.
func entrySize(key string, value []byte) uint32 {
	n := len(key) + len(value)
	if n < 1 {
		n = 1
	}
	if n > 1<<31 {
		n = 1 << 31
	}
	return uint32(n)
}
