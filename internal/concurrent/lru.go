package concurrent

import (
	"sync"
	"sync/atomic"

	"s3fifo/internal/list"
	"s3fifo/internal/lockfree"
)

// LRUStrict is textbook thread-safe LRU: a single mutex protects both the
// hash index and the recency list, and every hit promotes the object to
// the list head under that lock. This is Fig. 8's "LRU" curve — it cannot
// scale because cache hits serialize on the promotion lock.
type LRUStrict struct {
	mu       sync.Mutex
	capacity int
	queue    *list.List
	index    map[uint64]*strictEntry
}

type strictEntry struct {
	node  *list.Node
	value []byte
}

// NewLRUStrict returns a strict LRU cache holding capacity objects.
func NewLRUStrict(capacity int) *LRUStrict {
	return &LRUStrict{
		capacity: capacity,
		queue:    list.New(),
		index:    make(map[uint64]*strictEntry, capacity),
	}
}

// Name implements Cache.
func (c *LRUStrict) Name() string { return "lru-strict" }

// Get implements Cache: promotion on every hit, under the global lock.
func (c *LRUStrict) Get(key uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.index[key]
	if !ok {
		return nil, false
	}
	c.queue.MoveToFront(e.node)
	return e.value, true
}

// Set implements Cache.
func (c *LRUStrict) Set(key uint64, value []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.index[key]; ok {
		e.value = value
		c.queue.MoveToFront(e.node)
		return
	}
	for len(c.index) >= c.capacity {
		victim := c.queue.PopBack()
		if victim == nil {
			break
		}
		delete(c.index, victim.Key)
	}
	n := &list.Node{Key: key}
	c.queue.PushFront(n)
	c.index[key] = &strictEntry{node: n, value: value}
}

// Len implements Cache.
func (c *LRUStrict) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Capacity implements Cache.
func (c *LRUStrict) Capacity() int { return c.capacity }

// LRUOptimized mirrors the optimizations Cachelib applies to its LRU
// (§5.1.3): the hash index is sharded so lookups scale, and promotions
// are (a) delayed — an object promoted within the last ~capacity/8
// operations is not promoted again — and (b) batched through a lock-free
// MPSC buffer: a hit enqueues a promotion intent without touching the
// list lock, and whoever next holds the lock (the miss path, or a hit
// that finds the buffer full and wins a try-lock) drains the buffer and
// applies the promotions. The recency order becomes slightly stale,
// buying throughput; a single list mutex still backs insertions and
// evictions, which is what caps its scaling in Fig. 8.
type LRUOptimized struct {
	capacity int
	index    *shardedIndex[optEntry]

	listMu     sync.Mutex
	queue      *list.List
	promotions *lockfree.Ring // pending promotion intents (keys)

	clock      atomic.Uint64 // approximate operation clock
	promoteAge uint64        // minimum clock distance between promotions
}

type optEntry struct {
	node       *list.Node
	value      atomic.Pointer[[]byte]
	promotedAt atomic.Uint64
	dead       atomic.Bool
}

// NewLRUOptimized returns an optimized LRU cache holding capacity objects.
func NewLRUOptimized(capacity int) *LRUOptimized {
	pa := uint64(capacity / 8)
	if pa < 1 {
		pa = 1
	}
	return &LRUOptimized{
		capacity:   capacity,
		index:      newShardedIndex[optEntry](),
		queue:      list.New(),
		promotions: lockfree.NewRing(1024),
		promoteAge: pa,
	}
}

// drainPromotionsLocked applies queued promotion intents; the caller
// holds listMu.
func (c *LRUOptimized) drainPromotionsLocked() {
	c.promotions.Drain(func(key uint64) {
		if e, ok := c.index.get(key); ok && !e.dead.Load() && e.node.InList() {
			c.queue.MoveToFront(e.node)
		}
	}, 256)
}

// Name implements Cache.
func (c *LRUOptimized) Name() string { return "lru-optimized" }

// Get implements Cache.
func (c *LRUOptimized) Get(key uint64) ([]byte, bool) {
	e, ok := c.index.get(key)
	if !ok || e.dead.Load() {
		return nil, false
	}
	v := e.value.Load()
	now := c.clock.Add(1)
	if last := e.promotedAt.Load(); now-last >= c.promoteAge {
		// Delayed promotion through the lock-free buffer: the hit path
		// never waits on the list lock.
		if c.promotions.TryPush(key) {
			e.promotedAt.Store(now)
		} else if c.listMu.TryLock() {
			// Buffer full: help drain if the lock is free, else skip.
			c.drainPromotionsLocked()
			c.listMu.Unlock()
		}
	}
	return *v, true
}

// Set implements Cache.
func (c *LRUOptimized) Set(key uint64, value []byte) {
	e := &optEntry{node: &list.Node{Key: key}}
	e.value.Store(&value)
	e.promotedAt.Store(c.clock.Load())
	for {
		old, loaded := c.index.putIfAbsent(key, e)
		if !loaded {
			break // we own the insertion
		}
		if !old.dead.Load() {
			old.value.Store(&value)
			return
		}
		c.index.deleteIf(key, old)
	}
	c.listMu.Lock()
	c.drainPromotionsLocked()
	for c.queue.Len() >= c.capacity {
		victim := c.queue.PopBack()
		if victim == nil {
			break
		}
		// One node per mapped entry: the mapping for the victim's key is
		// the entry that owns this node.
		if ve, ok := c.index.get(victim.Key); ok {
			ve.dead.Store(true)
			c.index.deleteIf(victim.Key, ve)
		}
	}
	c.queue.PushFront(e.node)
	c.listMu.Unlock()
}

// Len implements Cache.
func (c *LRUOptimized) Len() int { return c.index.len() }

// Capacity implements Cache.
func (c *LRUOptimized) Capacity() int { return c.capacity }
