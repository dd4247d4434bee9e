package cache

import "s3fifo/internal/concurrent"

// newConcurrentEngine builds the lock-free S3-FIFO engine: *concurrent.KV
// satisfies Engine as it stands. Hits are lock-free (hash lookup, key
// verification, capped atomic frequency bump); only misses and evictions
// take a queue-shard mutex. It implements exactly one policy — s3fifo —
// which Config validation enforces.
//
// The eviction hook runs under the owning queue shard's mutex. The KV
// serializes overwrites and deletes on that same mutex whenever a hook is
// configured, which is what lets the facade order its second-tier
// tombstones after in-flight demotions (see cache/tiered.go).
func newConcurrentEngine(cfg engineConfig) (Engine, error) {
	return concurrent.NewKV(concurrent.KVConfig{
		MaxBytes: cfg.maxBytes,
		Shards:   cfg.shards,
		// TTL checks share the facade's clock so fake-clock tests drive
		// both engines identically.
		Now:     func() int64 { return now().UnixNano() },
		OnEvict: cfg.onEvict,
	}), nil
}
