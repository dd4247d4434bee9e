package concurrent

import (
	"sync"
	"sync/atomic"
)

// Segcache models Segcache's synchronization structure (§5.3): objects
// live in append-only segments chained FIFO; reads touch no shared
// metadata beyond an atomic per-object frequency, and evictions operate on
// whole segments (merge-based FIFO), so synchronization happens orders of
// magnitude less often than per-request. The cost is that merging copies
// data, making the single-thread path slower than S3-FIFO — both effects
// Fig. 8 shows.
type Segcache struct {
	capacity int
	segSize  int
	index    *shardedIndex[segEntry]

	mu       sync.Mutex // guards the segment chain (eviction/rotation)
	segments []*segment
	live     atomic.Int64
}

type segEntry struct {
	key   uint64
	value atomic.Pointer[[]byte]
	freq  atomic.Int32
	dead  atomic.Bool
}

type segment struct {
	entries []*segEntry
}

// NewSegcache returns a Segcache-like cache holding capacity objects,
// organized into 16 segments.
func NewSegcache(capacity int) *Segcache {
	segSize := capacity / 16
	if segSize < 1 {
		segSize = 1
	}
	return &Segcache{
		capacity: capacity,
		segSize:  segSize,
		index:    newShardedIndex[segEntry](),
	}
}

// Name implements Cache.
func (c *Segcache) Name() string { return "segcache" }

// Get implements Cache: no locks on the hit path; one atomic add.
func (c *Segcache) Get(key uint64) ([]byte, bool) {
	e, ok := c.index.get(key)
	if !ok || e.dead.Load() {
		return nil, false
	}
	v := e.value.Load()
	e.freq.Add(1)
	return *v, true
}

// Set implements Cache: appends to the active segment; when the cache is
// full the oldest segments are merged — their most frequent quarter is
// retained (copied, as the log-structured design must) and the rest
// evicted.
func (c *Segcache) Set(key uint64, value []byte) {
	e := &segEntry{key: key}
	e.value.Store(&value)
	for {
		old, loaded := c.index.putIfAbsent(key, e)
		if !loaded {
			break
		}
		if !old.dead.Load() {
			old.value.Store(&value)
			return
		}
		c.index.deleteIf(key, old)
	}
	c.mu.Lock()
	for int(c.live.Load()) >= c.capacity {
		c.mergeLocked()
	}
	if len(c.segments) == 0 || len(c.segments[len(c.segments)-1].entries) >= c.segSize {
		c.segments = append(c.segments, &segment{entries: make([]*segEntry, 0, c.segSize)})
	}
	active := c.segments[len(c.segments)-1]
	active.entries = append(active.entries, e)
	c.live.Add(1)
	c.mu.Unlock()
}

// mergeLocked merges the oldest four segments, retaining the hottest
// quarter of their live objects into a fresh segment at the chain's old
// end.
func (c *Segcache) mergeLocked() {
	n := 4
	if n > len(c.segments) {
		n = len(c.segments)
	}
	if n == 0 {
		return
	}
	var live []*segEntry
	for _, seg := range c.segments[:n] {
		for _, e := range seg.entries {
			if !e.dead.Load() {
				live = append(live, e)
			}
		}
	}
	c.segments = append([]*segment{}, c.segments[n:]...)

	retained := &segment{entries: make([]*segEntry, 0, c.segSize)}
	maxFreq := int32(0)
	for _, e := range live {
		if f := e.freq.Load(); f > maxFreq {
			maxFreq = f
		}
	}
	kept := make(map[*segEntry]bool, c.segSize)
	for want := maxFreq; want > 0 && len(retained.entries) < c.segSize; want-- {
		for _, e := range live {
			if e.freq.Load() != want || kept[e] || len(retained.entries) >= c.segSize {
				continue
			}
			// "Copy" the object into the merged segment: the data copy is
			// what makes Segcache's eviction more expensive per object.
			v := e.value.Load()
			copied := make([]byte, len(*v))
			copy(copied, *v)
			e.value.Store(&copied)
			e.freq.Store(want / 2)
			retained.entries = append(retained.entries, e)
			kept[e] = true
		}
	}
	evicted := 0
	for _, e := range live {
		if kept[e] {
			continue
		}
		e.dead.Store(true)
		c.index.deleteIf(e.key, e)
		evicted++
	}
	c.live.Add(-int64(evicted))
	if len(retained.entries) > 0 {
		c.segments = append([]*segment{retained}, c.segments...)
	}
}

// Len implements Cache.
func (c *Segcache) Len() int { return int(c.live.Load()) }

// Capacity implements Cache.
func (c *Segcache) Capacity() int { return c.capacity }
