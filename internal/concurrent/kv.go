package concurrent

import (
	"sort"

	"s3fifo/internal/sketch"
)

// KV is the serving front of the concurrent S3-FIFO machine (shard.go):
// what a real cache server needs on top of it.
//
//   - Real string keys. The index is keyed by a 64-bit FNV hash, but each
//     entry stores its key and every lookup verifies it, so a hash
//     collision can never serve another key's value.
//   - Byte-accounted capacity: entries charge len(key)+len(value) against
//     a per-shard byte budget, and the small/main split is in bytes.
//   - Lazy TTL expiry against an injectable clock.
//   - An eviction hook (OnEvict) observing every true eviction with the
//     entry's frequency-at-eviction — the demotion point a second tier
//     hangs off.
//
// *KV satisfies cache.Engine directly; the types that interface speaks
// (Eviction, Counters, QueueOccupancy, KeySample, MetaRecord) are declared
// here and aliased from package cache.
type KV struct {
	machine[string]
}

// KVConfig configures NewKV.
type KVConfig struct {
	// MaxBytes is the total capacity, charging len(key)+len(value) per
	// entry. Required (a zero capacity is clamped to one byte).
	MaxBytes uint64
	// Shards is the queue shard count (rounded up to a power of two,
	// capped at 64). <= 0 picks a default from GOMAXPROCS, shrunk until
	// every shard holds a meaningful byte budget.
	Shards int
	// Now returns the current time in unix nanoseconds; nil uses the real
	// clock. Indirected so the cache facade's fake-clock tests drive TTL.
	Now func() int64
	// OnEvict, when set, observes every eviction (not deletes, not
	// overwrites). It runs with the owning shard's mutex held: keep it
	// short, and never call back into the KV from inside it.
	OnEvict func(Eviction)
}

// Eviction describes one capacity eviction as seen by the eviction hook:
// the victim's key, value, charged size, S3-FIFO frequency at eviction
// (0 for engines without a frequency counter), and absolute expiry
// (0 = none). The second tier's demotion decision consumes all of these.
type Eviction struct {
	Key       string
	Value     []byte
	Size      uint32
	Freq      int
	ExpiresAt int64
}

// minShardBytes keeps automatically chosen shards large enough that the
// per-shard small/main split stays meaningful.
const minShardBytes = 4096

// NewKV returns a concurrent string-keyed S3-FIFO.
func NewKV(cfg KVConfig) *KV {
	kv := &KV{}
	kv.init(max(cfg.MaxBytes, 1), cfg.Shards, minShardBytes, func(shardCap uint64) shardTuning {
		return shardTuning{evictSlack: shardCap / 64, ghostEntries: 16}
	})
	if cfg.Now != nil {
		kv.now = cfg.Now
	}
	if hook := cfg.OnEvict; hook != nil {
		kv.onEvict = func(key string, value []byte, size uint32, freq int, expiresAt int64) {
			hook(Eviction{Key: key, Value: value, Size: size, Freq: freq, ExpiresAt: expiresAt})
		}
	}
	return kv
}

// Name returns the implementation name.
func (c *KV) Name() string { return "concurrent" }

// hashKV is FNV-1a over the key bytes; the index and queue shards apply
// mix64 on top, so sequential keys spread over both.
func hashKV(key string) uint64 { return sketch.FNV1a(key) }

// kvEntrySize is the charged size of an entry.
func kvEntrySize(key string, value []byte) uint32 {
	return uint32(min(max(len(key)+len(value), 1), 1<<31))
}

// Get returns the value for key and whether it was resident and
// unexpired: the lock-free hit path.
func (c *KV) Get(key string) ([]byte, bool) { return c.get(hashKV(key), key) }

// GetStale returns key's resident value and absolute expiry (0 = no TTL)
// even when the TTL has passed, without reaping it.
func (c *KV) GetStale(key string) ([]byte, int64, bool) { return c.getStale(hashKV(key), key) }

// Contains reports whether key is resident and unexpired, without
// touching its frequency.
func (c *KV) Contains(key string) bool { return c.contains(hashKV(key), key) }

// Set inserts or replaces the value for key with an absolute expiry in
// unix nanoseconds (0 = none). It returns false when the entry is larger
// than its shard's capacity, in which case any stale copy is dropped.
func (c *KV) Set(key string, value []byte, expiresAt int64) bool {
	return c.set(hashKV(key), key, value, kvEntrySize(key, value), expiresAt)
}

// Add inserts value only if key is not resident, and reports whether the
// insert happened.
func (c *KV) Add(key string, value []byte, expiresAt int64) bool {
	return c.add(hashKV(key), key, value, kvEntrySize(key, value), expiresAt)
}

// Delete removes key if present and reports whether an unexpired value
// was held. The eviction hook is not invoked.
func (c *KV) Delete(key string) bool { return c.del(hashKV(key), key) }

// Capacity returns the configured capacity in bytes.
func (c *KV) Capacity() uint64 { return c.capacity }

// EvictionsSmall returns evictions taken from the small queue S (true
// demotions into the ghost, Algorithm 1's EVICTS branch).
func (c *KV) EvictionsSmall() uint64 { return c.evictSmall.Load() }

// EvictionsMain returns evictions taken from the main queue M.
func (c *KV) EvictionsMain() uint64 { return c.evictMain.Load() }

// GhostReinserts returns inserts that went straight to M because the
// ghost queue remembered the key (the paper's lazy promotion signal).
func (c *KV) GhostReinserts() uint64 { return c.ghostReinserts.Load() }

// Counters are cumulative eviction-flow counts — the taxonomy DESIGN.md
// §9 maps onto Algorithm 1's branches. SmallQueueEvict and MainQueueEvict
// partition capacity evictions; the rest account for removals and
// reinsertions outside the two eviction scans.
type Counters struct {
	// SmallQueueEvict counts evictions from the small queue S — the quick
	// demotions into the ghost queue (EVICTS).
	SmallQueueEvict uint64
	// MainQueueEvict counts evictions from the main queue M (EVICTM). For
	// single-queue policies every capacity eviction lands here.
	MainQueueEvict uint64
	// GhostReinsert counts misses inserted directly into M because the
	// ghost queue remembered the key (READ's ghost-hit branch).
	GhostReinsert uint64
	// TTLExpire counts lazily reaped TTL expiries.
	TTLExpire uint64
	// ExplicitDelete counts Delete calls that removed a resident entry.
	ExplicitDelete uint64
	// OversizedOverwrite counts resident entries dropped because an
	// overwrite was too large to admit.
	OversizedOverwrite uint64
}

// Counters returns the cumulative eviction-flow counters. Cheap — reads
// always-on atomics.
func (c *KV) Counters() Counters {
	return Counters{
		SmallQueueEvict:    c.evictSmall.Load(),
		MainQueueEvict:     c.evictMain.Load(),
		GhostReinsert:      c.ghostReinserts.Load(),
		TTLExpire:          c.expired.Load(),
		ExplicitDelete:     c.deletes.Load(),
		OversizedOverwrite: c.oversized.Load(),
	}
}

// QueueOccupancy is a point-in-time sample of S3-FIFO queue occupancy
// (S/M byte and entry counts, ghost entry count), summed over shards.
type QueueOccupancy struct {
	SmallBytes, MainBytes uint64
	SmallLen, MainLen     int
	GhostLen              int
}

// Occupancy samples queue occupancy under each shard's mutex in turn — a
// scrape-time operation, not a hot-path one. It counts live entries only,
// tombstones not yet swept left out, so at rest S and M add up to Used
// and Len.
func (c *KV) Occupancy() QueueOccupancy {
	var occ QueueOccupancy
	for _, s := range c.shards {
		s.mu.Lock()
		sb, sn := s.held(inSmall)
		mb, mn := s.held(inMain)
		occ.SmallBytes += sb
		occ.MainBytes += mb
		occ.SmallLen += sn
		occ.MainLen += mn
		occ.GhostLen += s.ghost.Len()
		s.mu.Unlock()
	}
	return occ
}

// KeySample is one entry of an engine's hot-key export: the key and its
// access frequency at sampling time (the S3-FIFO freq counter, 0..3, or
// 0 when the engine does not track frequency).
type KeySample struct {
	Key  string
	Freq int
}

// Sample returns up to limit resident keys without a TTL, ordered by
// descending frequency — the node's best guess at its hot working set,
// exported to cluster warm-up via the KEYS command, which carries no TTL
// (a warmed copy of a TTL'd key would outlive it). To bound the cost on
// large caches the walk stops after scanning 8×limit entries; the index
// walk order is hash order, so the scanned prefix is an unbiased sample
// and sorting it surfaces the hot keys that matter. Scrape-time only.
func (c *KV) Sample(limit int) []KeySample {
	if limit <= 0 {
		return nil
	}
	scanBudget := limit * 8
	out := make([]KeySample, 0, limit)
	c.index.forEach(func(e *entry[string]) bool {
		if scanBudget <= 0 {
			return false
		}
		scanBudget--
		if e.isDead() || e.expires.Load() != 0 {
			return true
		}
		out = append(out, KeySample{Key: e.key, Freq: int(e.freq.Load())})
		return true
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Freq > out[j].Freq })
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Range visits every resident, unexpired entry; fn returning false stops
// the walk. Entries inserted or removed concurrently may or may not be
// visited.
func (c *KV) Range(fn func(key string, value []byte, expiresAt int64) bool) {
	nowNanos := c.now()
	c.index.forEach(func(e *entry[string]) bool {
		exp := e.expires.Load()
		v, ok := e.value()
		if !ok || e.isDead() || exp != 0 && nowNanos > exp {
			return true
		}
		return fn(e.key, v, exp)
	})
}
