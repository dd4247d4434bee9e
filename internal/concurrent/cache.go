// Package concurrent contains the multi-threaded cache implementations
// used for the scalability study (§5.3, Fig. 8) — the repository's
// Cachelib-prototype stand-in. Five caches share one interface but differ
// in their synchronization discipline:
//
//   - LRUStrict: one global mutex; every hit promotes under the lock.
//   - LRUOptimized: Cachelib-style optimized LRU — sharded read path plus
//     delayed, try-lock promotion on a single LRU list.
//   - TinyLFU: optimized-LRU read path, but every hit also updates a
//     count-min sketch behind its own lock.
//   - Segcache: log-structured segments; hits are read-only plus an atomic
//     frequency bump; eviction merges whole segments (rare, batched).
//   - S3FIFO: the paper's design — hits perform at most one atomic
//     frequency update and take no locks; only the miss path locks the
//     FIFO queues.
//
// The harness in replay.go replays a trace closed-loop from N goroutines
// and reports throughput, reproducing Fig. 8's scaling curves.
package concurrent

// Cache is a concurrent cache. Values are opaque byte slices; the caches
// store them by reference (the benchmark's working set is pre-generated).
type Cache interface {
	// Name returns the implementation name.
	Name() string
	// Get returns the cached value and whether it was present.
	Get(key uint64) ([]byte, bool)
	// Set inserts or replaces the value for key, evicting as needed.
	Set(key uint64, value []byte)
	// Len returns the number of cached objects.
	Len() int
	// Capacity returns the configured capacity in objects.
	Capacity() int
}
