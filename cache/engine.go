package cache

import (
	"fmt"
	"sort"

	"s3fifo/internal/concurrent"
)

// Engine is the eviction engine under the cache facade: a string-keyed,
// byte-budgeted store that decides what stays resident. Everything above
// eviction — TTL bookkeeping, the flash tier, snapshots, the TCP server,
// both binaries — programs against this interface, so the serving stack
// can run on either the policy-backed sharded engine (any of the ~25
// baseline algorithms) or the lock-free concurrent S3-FIFO.
//
// Concurrency contract: all methods are safe for concurrent use. The
// eviction hook (engineConfig.onEvict) may be invoked with internal
// engine locks held; implementations guarantee only that the hook for a
// given key cannot still be in flight after a Set or Delete of that key
// has returned. Hooks must not call back into the engine.
//
// Borrowed-key contract: the key given to a lookup or a removal (Get,
// GetStale, Contains, Delete) is lent for the call. The server passes
// strings that alias its socket read buffer, so an engine — and every
// layer a lookup passes through: the facade, the negative table, a Tier's
// Get/Contains/Delete — may hash, compare and copy such a key but must
// not keep it once the call returns. The key given to Set or Add is kept:
// callers hand over a string nothing will overwrite, and whoever turns a
// lookup into a store (Cache.promote, the breaker's dirty set, the
// server's fill table) clones the key first.
type Engine interface {
	// Name returns the engine name ("policy" or "concurrent").
	Name() string
	// Get returns the value for key and whether it was resident and
	// unexpired. Expired entries are reaped lazily.
	Get(key string) ([]byte, bool)
	// GetStale returns key's resident value and absolute expiry (0 = no
	// TTL) even when the TTL has passed, without reaping it — the
	// stale-while-revalidate read. Freshness is the caller's judgment:
	// the facade applies the shared expiry boundary (expiredAt) and the
	// grace window. Like Get it counts as an access for eviction state.
	GetStale(key string) (value []byte, expiresAt int64, ok bool)
	// Set inserts or replaces key with the given absolute expiry in unix
	// nanoseconds (0 = no TTL). It returns false when the entry cannot fit
	// (oversized for the engine's sharding), in which case any stale copy
	// of key has been dropped.
	Set(key string, value []byte, expiresAt int64) bool
	// Add inserts only if key is not resident (the flash-promotion path).
	// It reports whether the insert happened.
	Add(key string, value []byte, expiresAt int64) bool
	// Delete removes key and reports whether it was resident and
	// unexpired. The eviction hook is not invoked for deletes.
	Delete(key string) bool
	// Contains reports residency without perturbing eviction state.
	Contains(key string) bool
	// Len returns the number of resident entries.
	Len() int
	// Used returns the resident bytes (keys + values).
	Used() uint64
	// Capacity returns the configured byte capacity.
	Capacity() uint64
	// Range visits resident, unexpired entries; fn returning false stops
	// the walk. Used by snapshots; concurrent mutations may or may not be
	// observed.
	Range(fn func(key string, value []byte, expiresAt int64) bool)
	// Counters returns the cumulative eviction-flow counters: every entry
	// removal or queue transition, attributed to the Algorithm 1 branch
	// (or API call) that caused it. Cheap — reads always-on atomics.
	Counters() EngineCounters
	// Occupancy samples the current S3-FIFO queue occupancy. It may take
	// internal locks, so callers should treat it as a scrape-time
	// operation. Engines running a non-S3-FIFO policy report their whole
	// residency as the main queue and zero small/ghost occupancy.
	Occupancy() QueueOccupancy
	// Sample returns up to max resident keys without a TTL, ordered
	// hottest-first by the engine's access-frequency counter, for cluster
	// warm-up (the KEYS command, which carries no TTL: a copy of a TTL'd
	// key would outlive it). Engines without per-key frequency report Freq 0 and an
	// arbitrary resident sample. Like Range it may observe concurrent
	// mutation; it is a scrape-time operation, not a hot-path one.
	Sample(max int) []KeySample
	// SnapshotMeta exports the engine's full eviction state — resident
	// entries with queue membership and frequency, plus ghost-queue
	// fingerprints — in an order RestoreMeta can replay (per queue,
	// FIFO-oldest first). fn returning false stops the walk. Engines
	// without S3-FIFO structure export what they have (entries as
	// MetaMain, Freq 0, no ghost records); see each engine's notes.
	SnapshotMeta(fn func(MetaRecord) bool)
	// RestoreMeta rebuilds eviction state from a SnapshotMeta export,
	// on a freshly constructed, empty engine. Records the engine cannot
	// represent (e.g. ghost fingerprints on a non-S3-FIFO policy) are
	// dropped. Entries that no longer fit evict as live inserts would.
	RestoreMeta(next func() (MetaRecord, bool))
}

// The data the Engine interface speaks is declared once, next to the
// engine that produces all of it (internal/concurrent), and aliased here
// so the public names survive.
type (
	// MetaRecord is one record of an engine's metadata snapshot.
	MetaRecord = concurrent.MetaRecord
	// MetaQueue says which S3-FIFO queue a snapshot entry was resident in.
	MetaQueue = concurrent.MetaQueue
	// KeySample is one entry of an engine's hot-key export.
	KeySample = concurrent.KeySample
	// EngineCounters are cumulative eviction-flow counts.
	EngineCounters = concurrent.Counters
	// QueueOccupancy is a point-in-time sample of queue occupancy.
	QueueOccupancy = concurrent.QueueOccupancy
	// EngineEviction describes one capacity eviction as seen by the
	// engine's hook.
	EngineEviction = concurrent.Eviction
)

const (
	MetaSmall = concurrent.MetaSmall
	MetaMain  = concurrent.MetaMain
)

// engineConfig is what a facade Config boils down to by the time an
// engine is constructed.
type engineConfig struct {
	maxBytes uint64
	shards   int
	policy   string
	// onEvict observes every capacity eviction. May run under engine
	// locks; see the Engine contract.
	onEvict func(EngineEviction)
}

// engineFactories maps engine names to constructors. "policy" is the
// mutex-per-shard engine wrapping any policy.Policy; "concurrent" is the
// lock-free S3-FIFO from internal/concurrent.
var engineFactories = map[string]func(engineConfig) (Engine, error){
	"policy":     newPolicyEngine,
	"concurrent": newConcurrentEngine,
}

// Engines returns the available engine names, sorted.
func Engines() []string {
	names := make([]string, 0, len(engineFactories))
	for name := range engineFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// newEngine validates the engine selection against the rest of the
// config and constructs it.
func newEngine(cfg Config, onEvict func(EngineEviction)) (Engine, error) {
	name := cfg.Engine
	if name == "" {
		name = "concurrent"
		if cfg.Policy != "" && cfg.Policy != "s3fifo" {
			name = "policy"
		}
	}
	factory, ok := engineFactories[name]
	if !ok {
		return nil, fmt.Errorf("cache: unknown engine %q (have %v)", name, Engines())
	}
	if name == "concurrent" && cfg.Policy != "" && cfg.Policy != "s3fifo" {
		return nil, fmt.Errorf("cache: engine %q implements only the s3fifo policy, not %q", name, cfg.Policy)
	}
	return factory(engineConfig{
		maxBytes: cfg.MaxBytes,
		shards:   cfg.Shards,
		policy:   cfg.Policy,
		onEvict:  onEvict,
	})
}
