package policy

import (
	"container/heap"
	"math"

	"s3fifo/internal/list"
	"s3fifo/internal/sketch"
)

// CACHEUS implements the CACHEUS algorithm (Rodriguez et al., FAST'21),
// evaluated in §5.2. Like LeCaR it arbitrates between two experts with
// regret-based weights, but with the FAST'21 refinements: the experts are
// SR-LRU (scan-resistant LRU — new objects live in a probationary region
// and must be reused to enter the protected region) and CR-LFU
// (churn-resistant LFU — frequency ties break toward keeping the most
// recently used), and the learning rate adapts: it is perturbed upward
// when the recent hit ratio degrades and decays toward stability
// otherwise, removing LeCaR's fixed-λ tuning knob.
type CACHEUS struct {
	base
	// Shared residents with SR-LRU structure: probation + protected.
	probation  *list.List
	protected  *list.List
	protBytes  uint64
	protTarget uint64
	index      map[uint64]*cacheusEntry
	// CR-LFU view over the same residents.
	pq lecarHeap
	// Expert histories and weights.
	hLRU, hLFU *ghostList
	ghostTime  map[uint64]uint64
	wLRU       float64
	lr         float64
	// Adaptive learning rate bookkeeping.
	windowHits, windowReqs uint64
	prevHitRate            float64
	state                  uint64
}

type cacheusEntry struct {
	node        *list.Node
	inProtected bool
	freq        int32
	version     uint64
}

// NewCACHEUS returns a CACHEUS cache.
func NewCACHEUS(capacity uint64) *CACHEUS {
	return &CACHEUS{
		base:       base{name: "cacheus", capacity: capacity},
		probation:  list.New(),
		protected:  list.New(),
		protTarget: capacity * 2 / 3,
		index:      make(map[uint64]*cacheusEntry),
		hLRU:       newGhostList(capacity / 2),
		hLFU:       newGhostList(capacity / 2),
		ghostTime:  make(map[uint64]uint64),
		wLRU:       0.5,
		lr:         0.1,
		state:      0x1F83D9ABFB41BD6B,
	}
}

func (c *CACHEUS) rand() float64 {
	c.state = sketch.Hash(c.state, 0xCafe5)
	return float64(c.state>>11) / float64(1<<53)
}

// adaptLR implements the CACHEUS learning-rate update: compare the hit
// ratio of the last window against the one before; degradation perturbs
// the learning rate upward, improvement lets it decay.
func (c *CACHEUS) adaptLR() {
	window := c.capacity
	if window < 128 {
		window = 128
	}
	if c.windowReqs < window {
		return
	}
	hitRate := float64(c.windowHits) / float64(c.windowReqs)
	switch {
	case hitRate < c.prevHitRate:
		c.lr = math.Min(c.lr*1.5+0.001, 1.0)
	case hitRate > c.prevHitRate:
		c.lr = math.Max(c.lr*0.9, 0.001)
	}
	c.prevHitRate = hitRate
	c.windowHits, c.windowReqs = 0, 0
}

// adjust applies the regret update after a ghost hit.
func (c *CACHEUS) adjust(hitLRUGhost bool, evictedAt uint64) {
	t := float64(c.clock - evictedAt)
	d := math.Pow(0.005, 1/float64(maxU64c(c.capacity, 1)))
	reward := math.Pow(d, t)
	wLRU, wLFU := c.wLRU, 1-c.wLRU
	if hitLRUGhost {
		wLFU *= math.Exp(c.lr * reward)
	} else {
		wLRU *= math.Exp(c.lr * reward)
	}
	c.wLRU = wLRU / (wLRU + wLFU)
}

// Request implements Policy.
func (c *CACHEUS) Request(key uint64, size uint32) bool {
	c.clock++
	c.windowReqs++
	c.adaptLR()
	if e, ok := c.index[key]; ok {
		c.windowHits++
		e.freq++
		e.node.Freq++
		e.version++
		heap.Push(&c.pq, lecarHeapItem{key: key, freq: e.freq, last: c.clock, version: e.version})
		if e.inProtected {
			c.protected.MoveToFront(e.node)
		} else {
			// SR-LRU: reuse promotes out of probation.
			c.probation.Remove(e.node)
			e.inProtected = true
			c.protected.PushFront(e.node)
			c.protBytes += uint64(e.node.Size)
			c.demoteProtected()
		}
		return true
	}
	if uint64(size) > c.capacity {
		return false
	}
	if c.hLRU.contains(key) {
		c.adjust(true, c.ghostTime[key])
		c.hLRU.remove(key)
		delete(c.ghostTime, key)
	} else if c.hLFU.contains(key) {
		c.adjust(false, c.ghostTime[key])
		c.hLFU.remove(key)
		delete(c.ghostTime, key)
	}
	for c.used+uint64(size) > c.capacity {
		c.evict()
	}
	e := &cacheusEntry{node: &list.Node{Key: key, Size: size, Aux: int64(c.clock)}, freq: 1}
	c.index[key] = e
	c.probation.PushFront(e.node)
	c.used += uint64(size)
	heap.Push(&c.pq, lecarHeapItem{key: key, freq: 1, last: c.clock, version: 0})
	return false
}

// demoteProtected keeps the protected region within its budget.
func (c *CACHEUS) demoteProtected() {
	for c.protBytes > c.protTarget {
		n := c.protected.PopBack()
		if n == nil {
			return
		}
		c.protBytes -= uint64(n.Size)
		c.index[n.Key].inProtected = false
		c.probation.PushFront(n)
	}
}

// evict chooses an expert by weight: SR-LRU evicts the probation tail
// (falling back to protected), CR-LFU evicts the lowest-frequency object
// with ties broken toward evicting the LEAST recently used (keeping the
// most recent — churn resistance).
func (c *CACHEUS) evict() {
	if c.rand() < c.wLRU {
		n := c.probation.Back()
		if n == nil {
			n = c.protected.Back()
		}
		if n == nil {
			return
		}
		c.removeResident(n.Key, c.hLRU)
		return
	}
	for c.pq.Len() > 0 {
		item := heap.Pop(&c.pq).(lecarHeapItem)
		e, ok := c.index[item.key]
		if !ok || e.version != item.version {
			continue
		}
		c.removeResident(item.key, c.hLFU)
		return
	}
	if n := c.probation.Back(); n != nil {
		c.removeResident(n.Key, c.hLRU)
	}
}

func (c *CACHEUS) removeResident(key uint64, ghost *ghostList) {
	e := c.index[key]
	if e.inProtected {
		c.protected.Remove(e.node)
		c.protBytes -= uint64(e.node.Size)
	} else {
		c.probation.Remove(e.node)
	}
	delete(c.index, key)
	c.used -= uint64(e.node.Size)
	ghost.push(key, e.node.Size)
	c.ghostTime[key] = c.clock
	if len(c.ghostTime) > 4*(c.hLRU.len()+c.hLFU.len()+16) {
		for k := range c.ghostTime {
			if !c.hLRU.contains(k) && !c.hLFU.contains(k) {
				delete(c.ghostTime, k)
			}
		}
	}
	c.notify(key, e.node.Size, int(e.node.Freq), uint64(e.node.Aux))
}

// Contains implements Policy.
func (c *CACHEUS) Contains(key uint64) bool {
	_, ok := c.index[key]
	return ok
}

// Delete implements Policy.
func (c *CACHEUS) Delete(key uint64) {
	e, ok := c.index[key]
	if !ok {
		return
	}
	if e.inProtected {
		c.protected.Remove(e.node)
		c.protBytes -= uint64(e.node.Size)
	} else {
		c.probation.Remove(e.node)
	}
	delete(c.index, key)
	c.used -= uint64(e.node.Size)
}

// Len returns the number of cached objects.
func (c *CACHEUS) Len() int { return len(c.index) }

func maxU64c(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
