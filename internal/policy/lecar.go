package policy

import (
	"container/heap"
	"math"

	"s3fifo/internal/list"
	"s3fifo/internal/sketch"
)

// LeCaR implements the Learning Cache Replacement algorithm (Vietri et
// al., HotStorage'18): every eviction chooses between an LRU expert and an
// LFU expert by sampling from regret-minimizing weights. Each expert has a
// ghost history; a request that hits a ghost means the corresponding
// expert's past decision was wrong, so its weight decays multiplicatively
// with a reward discounted by the time since the eviction.
type LeCaR struct {
	base
	queue     *list.List // LRU order over residents
	index     map[uint64]*lecarEntry
	heap      lecarHeap // LFU order over residents (lazy)
	hLRU      *ghostList
	hLFU      *ghostList
	ghostTime map[uint64]uint64 // eviction time of ghost entries
	wLRU      float64
	lambda    float64
	d         float64 // per-step discount
	state     uint64  // PRNG state for expert sampling
}

type lecarEntry struct {
	node    *list.Node
	freq    int32
	version uint64
}

type lecarHeapItem struct {
	key     uint64
	freq    int32
	last    uint64 // tie-break: older is evicted first
	version uint64
}

type lecarHeap []lecarHeapItem

func (h lecarHeap) Len() int { return len(h) }
func (h lecarHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].last < h[j].last
}
func (h lecarHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *lecarHeap) Push(x any)   { *h = append(*h, x.(lecarHeapItem)) }
func (h *lecarHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// NewLeCaR returns a LeCaR cache with the original paper's learning rate
// (0.45) and a discount rate of 0.005^(1/N) where N approximates the cache
// size in objects.
func NewLeCaR(capacity uint64) *LeCaR {
	n := float64(capacity)
	if n < 1 {
		n = 1
	}
	return &LeCaR{
		base:      base{name: "lecar", capacity: capacity},
		queue:     list.New(),
		index:     make(map[uint64]*lecarEntry),
		hLRU:      newGhostList(capacity),
		hLFU:      newGhostList(capacity),
		ghostTime: make(map[uint64]uint64),
		wLRU:      0.5,
		lambda:    0.45,
		d:         math.Pow(0.005, 1/n),
		state:     0x243F6A8885A308D3,
	}
}

func (l *LeCaR) rand() float64 {
	l.state = sketch.Hash(l.state, 0xBEEF)
	return float64(l.state>>11) / float64(1<<53)
}

// adjust applies the multiplicative-weights regret update after a ghost
// hit on the named expert's history.
func (l *LeCaR) adjust(hitLRUGhost bool, evictedAt uint64) {
	t := float64(l.clock - evictedAt)
	reward := math.Pow(l.d, t)
	wLRU, wLFU := l.wLRU, 1-l.wLRU
	if hitLRUGhost {
		// LRU's decision was wrong: boost LFU.
		wLFU *= math.Exp(l.lambda * reward)
	} else {
		wLRU *= math.Exp(l.lambda * reward)
	}
	l.wLRU = wLRU / (wLRU + wLFU)
}

// Request implements Policy.
func (l *LeCaR) Request(key uint64, size uint32) bool {
	l.clock++
	if e, ok := l.index[key]; ok {
		e.freq++
		e.node.Freq++
		e.version++
		l.queue.MoveToFront(e.node)
		heap.Push(&l.heap, lecarHeapItem{key: key, freq: e.freq, last: l.clock, version: e.version})
		return true
	}
	if uint64(size) > l.capacity {
		return false
	}
	if l.hLRU.contains(key) {
		l.adjust(true, l.ghostTime[key])
		l.hLRU.remove(key)
		delete(l.ghostTime, key)
	} else if l.hLFU.contains(key) {
		l.adjust(false, l.ghostTime[key])
		l.hLFU.remove(key)
		delete(l.ghostTime, key)
	}
	for l.used+uint64(size) > l.capacity {
		l.evict()
	}
	e := &lecarEntry{node: &list.Node{Key: key, Size: size, Aux: int64(l.clock)}, freq: 1}
	l.index[key] = e
	l.queue.PushFront(e.node)
	l.used += uint64(size)
	heap.Push(&l.heap, lecarHeapItem{key: key, freq: 1, last: l.clock, version: 0})
	return false
}

func (l *LeCaR) evict() {
	useLRU := l.rand() < l.wLRU
	if useLRU {
		n := l.queue.Back()
		if n == nil {
			return
		}
		l.removeResident(n.Key, l.hLRU)
		return
	}
	// LFU expert: pop lazily-invalidated heap entries.
	for l.heap.Len() > 0 {
		item := heap.Pop(&l.heap).(lecarHeapItem)
		e, ok := l.index[item.key]
		if !ok || e.version != item.version {
			continue
		}
		l.removeResident(item.key, l.hLFU)
		return
	}
	// Heap exhausted (all stale): fall back to LRU.
	if n := l.queue.Back(); n != nil {
		l.removeResident(n.Key, l.hLRU)
	}
}

func (l *LeCaR) removeResident(key uint64, ghost *ghostList) {
	e := l.index[key]
	l.queue.Remove(e.node)
	delete(l.index, key)
	l.used -= uint64(e.node.Size)
	ghost.push(key, e.node.Size)
	l.ghostTime[key] = l.clock
	l.gcGhostTimes()
	l.notify(key, e.node.Size, int(e.node.Freq), uint64(e.node.Aux))
}

// gcGhostTimes drops timestamps for entries no longer in either history.
func (l *LeCaR) gcGhostTimes() {
	if len(l.ghostTime) < 4*(l.hLRU.len()+l.hLFU.len()+16) {
		return
	}
	for k := range l.ghostTime {
		if !l.hLRU.contains(k) && !l.hLFU.contains(k) {
			delete(l.ghostTime, k)
		}
	}
}

// Contains implements Policy.
func (l *LeCaR) Contains(key uint64) bool {
	_, ok := l.index[key]
	return ok
}

// Delete implements Policy.
func (l *LeCaR) Delete(key uint64) {
	if e, ok := l.index[key]; ok {
		l.queue.Remove(e.node)
		delete(l.index, key)
		l.used -= uint64(e.node.Size)
	}
}

// Len returns the number of cached objects.
func (l *LeCaR) Len() int { return len(l.index) }
