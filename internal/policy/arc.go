package policy

import "s3fifo/internal/list"

// ARC implements Megiddo & Modha's Adaptive Replacement Cache (FAST'03),
// generalized to byte sizes: two resident LRU lists T1 (recency) and T2
// (frequency) plus ghost lists B1 and B2. The adaptation target p (bytes
// given to T1) grows on B1 hits and shrinks on B2 hits, scaled by the
// relative ghost sizes as in the original paper.
type ARC struct {
	base
	t1, t2 *list.List
	b1, b2 *ghostList
	index  map[uint64]*arcEntry
	t1Used uint64
	t2Used uint64
	p      uint64 // target bytes for T1
	demote DemotionObserver
}

// SetDemotionObserver implements DemotionTracker: T1 is ARC's probationary
// region; promotion to T2 and eviction from T1 are the demotion events.
func (a *ARC) SetDemotionObserver(o DemotionObserver) { a.demote = o }

type arcEntry struct {
	node *list.Node
	inT2 bool
}

// NewARC returns an ARC cache with the given byte capacity.
func NewARC(capacity uint64) *ARC {
	return &ARC{
		base:  base{name: "arc", capacity: capacity},
		t1:    list.New(),
		t2:    list.New(),
		b1:    newGhostList(capacity),
		b2:    newGhostList(capacity),
		index: make(map[uint64]*arcEntry),
	}
}

// Request implements Policy.
func (a *ARC) Request(key uint64, size uint32) bool {
	a.clock++
	if e, ok := a.index[key]; ok {
		// Case I: hit in T1 or T2 — promote to T2 MRU.
		e.node.Freq++
		if e.inT2 {
			a.t2.MoveToFront(e.node)
		} else {
			a.t1.Remove(e.node)
			a.t1Used -= uint64(e.node.Size)
			a.t2.PushFront(e.node)
			a.t2Used += uint64(e.node.Size)
			e.inT2 = true
			if a.demote != nil {
				a.demote(Demotion{Key: key, Entered: uint64(e.node.Aux), Left: a.clock, ToMain: true})
			}
		}
		return true
	}
	if uint64(size) > a.capacity {
		return false
	}

	switch {
	case a.b1.contains(key):
		// Case II: ghost hit in B1 — grow p.
		delta := uint64(size)
		if a.b1.bytes() > 0 && a.b2.bytes() > a.b1.bytes() {
			delta = uint64(size) * (a.b2.bytes() / a.b1.bytes())
		}
		a.p = minU64(a.p+delta, a.capacity)
		a.replace(false, size)
		a.b1.remove(key)
		a.insert(key, size, true)
	case a.b2.contains(key):
		// Case III: ghost hit in B2 — shrink p.
		delta := uint64(size)
		if a.b2.bytes() > 0 && a.b1.bytes() > a.b2.bytes() {
			delta = uint64(size) * (a.b1.bytes() / a.b2.bytes())
		}
		if delta > a.p {
			a.p = 0
		} else {
			a.p -= delta
		}
		a.replace(true, size)
		a.b2.remove(key)
		a.insert(key, size, true)
	default:
		// Case IV: brand-new object.
		if a.t1Used+a.b1.bytes() >= a.capacity {
			// Directory for recency side is full.
			if a.t1Used < a.capacity {
				a.b1.popLRU()
				a.replace(false, size)
			} else {
				a.evictFrom(a.t1, &a.t1Used, nil) // too many T1 residents: drop without ghost
			}
		} else if a.used+a.b1.bytes()+a.b2.bytes() >= a.capacity {
			if a.used+a.b1.bytes()+a.b2.bytes() >= 2*a.capacity {
				a.b2.popLRU()
			}
			a.replace(false, size)
		}
		a.replace(false, size) // ensure space in the size-aware setting
		a.insert(key, size, false)
	}
	return false
}

func (a *ARC) insert(key uint64, size uint32, intoT2 bool) {
	n := &list.Node{Key: key, Size: size, Aux: int64(a.clock)}
	if intoT2 {
		a.t2.PushFront(n)
		a.t2Used += uint64(size)
	} else {
		a.t1.PushFront(n)
		a.t1Used += uint64(size)
	}
	a.index[key] = &arcEntry{node: n, inT2: intoT2}
	a.used += uint64(size)
}

// replace evicts until the incoming object fits, choosing the side per the
// ARC REPLACE subroutine: evict from T1 when it exceeds the target p (or
// matches it and the request was a B2 ghost hit), otherwise from T2.
func (a *ARC) replace(b2Hit bool, incoming uint32) {
	for a.used+uint64(incoming) > a.capacity {
		fromT1 := a.t1.Len() > 0 &&
			(a.t1Used > a.p || (b2Hit && a.t1Used >= a.p) || a.t2.Len() == 0)
		if fromT1 {
			a.evictFrom(a.t1, &a.t1Used, a.b1)
		} else if a.t2.Len() > 0 {
			a.evictFrom(a.t2, &a.t2Used, a.b2)
		} else {
			return
		}
	}
}

// evictFrom removes the LRU entry of l, optionally recording it in ghost.
func (a *ARC) evictFrom(l *list.List, usedCounter *uint64, ghost *ghostList) {
	n := l.PopBack()
	if n == nil {
		return
	}
	*usedCounter -= uint64(n.Size)
	a.used -= uint64(n.Size)
	delete(a.index, n.Key)
	if ghost != nil {
		ghost.push(n.Key, n.Size)
	}
	if l == a.t1 && a.demote != nil {
		a.demote(Demotion{Key: n.Key, Entered: uint64(n.Aux), Left: a.clock, ToMain: false})
	}
	a.notify(n.Key, n.Size, int(n.Freq), uint64(n.Aux))
}

// Contains implements Policy.
func (a *ARC) Contains(key uint64) bool {
	_, ok := a.index[key]
	return ok
}

// Delete implements Policy.
func (a *ARC) Delete(key uint64) {
	e, ok := a.index[key]
	if !ok {
		return
	}
	if e.inT2 {
		a.t2.Remove(e.node)
		a.t2Used -= uint64(e.node.Size)
	} else {
		a.t1.Remove(e.node)
		a.t1Used -= uint64(e.node.Size)
	}
	a.used -= uint64(e.node.Size)
	delete(a.index, key)
}

// Len returns the number of cached objects.
func (a *ARC) Len() int { return len(a.index) }

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
