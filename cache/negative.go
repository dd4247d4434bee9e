package cache

import (
	"sync"
	"sync/atomic"
	"time"
)

// negShards is the shard count of the negative cache. Contention here is
// mild — negatives are written once per confirmed-missing key, read on
// the miss path — so a small fixed fan-out suffices.
const negShards = 8

// negativeEntries bounds the negative cache. At ~300 bytes per entry
// (key + map overhead) its footprint tops out near a megabyte.
const negativeEntries = 4096

// negCache remembers confirmed-missing keys as small-TTL tombstones, so
// a storm of lookups for a key the backend does not have costs one
// backend round trip per NegativeTTL instead of one per request. It
// lives beside the engine, not inside it: negative entries are never
// resident in an eviction queue, which is what structurally guarantees
// they can never demote to the second tier (see TestNegativeNeverDemotes)
// — and it means they occupy none of the cache's byte budget.
//
// Each shard is a bounded map plus a FIFO ring of its keys: when a shard
// fills, the oldest negative is overwritten. FIFO, not LRU — negatives
// are cheap to re-establish (one backend miss) and short-lived by
// construction, so recency tracking would buy nothing.
type negCache struct {
	entries atomic.Int64 // fast-path gate: skip shard locks while empty
	shards  [negShards]negShard
}

type negShard struct {
	mu   sync.Mutex
	m    map[string]int64 // key -> absolute expiry, unix nanoseconds
	ring []string         // insertion order; overwritten slots cycle
	pos  int
	cap  int
}

func newNegCache() *negCache {
	n := &negCache{}
	for i := range n.shards {
		n.shards[i] = negShard{m: make(map[string]int64), cap: negativeEntries / negShards}
	}
	return n
}

func (n *negCache) shardFor(key string) *negShard {
	return &n.shards[hashString(key)%negShards]
}

// set records key as confirmed-missing until nowNano + ttl.
func (n *negCache) set(key string, ttl time.Duration, nowNano int64) {
	if ttl <= 0 {
		return
	}
	s := n.shardFor(key)
	s.mu.Lock()
	if _, ok := s.m[key]; !ok {
		if len(s.ring) < s.cap {
			s.ring = append(s.ring, key)
		} else {
			// Full: the oldest negative makes room. Its map entry may have
			// been cleared already (Set/Delete of that key); only a live one
			// changes the entry count.
			old := s.ring[s.pos]
			if _, live := s.m[old]; live {
				delete(s.m, old)
				n.entries.Add(-1)
			}
			s.ring[s.pos] = key
			s.pos = (s.pos + 1) % s.cap
		}
		n.entries.Add(1)
	}
	s.m[key] = nowNano + int64(ttl)
	s.mu.Unlock()
}

// hit reports whether key is currently marked missing. Expired tombstones
// are reaped on the way out; their ring slots are reclaimed lazily when
// the ring cycles around.
func (n *negCache) hit(key string, nowNano int64) bool {
	if n.entries.Load() == 0 {
		return false
	}
	s := n.shardFor(key)
	s.mu.Lock()
	exp, ok := s.m[key]
	if ok && expiredAt(exp, nowNano) {
		delete(s.m, key)
		n.entries.Add(-1)
		ok = false
	}
	s.mu.Unlock()
	return ok
}

// clear drops key's tombstone, if any: a successful Set or an explicit
// Delete of the key makes the old "confirmed missing" verdict moot.
func (n *negCache) clear(key string) {
	if n.entries.Load() == 0 {
		return
	}
	s := n.shardFor(key)
	s.mu.Lock()
	if _, ok := s.m[key]; ok {
		delete(s.m, key)
		n.entries.Add(-1)
	}
	s.mu.Unlock()
}
