// Package lockfree provides a bounded multi-producer single-consumer ring
// used to batch cache metadata updates off the hot path — the technique
// production caches (Cachelib, memcached) use so a cache hit never blocks
// on the LRU lock: readers enqueue a promotion intent with two atomic
// operations; whoever next holds the list lock drains the buffer and
// applies the promotions in batch.
package lockfree

import "sync/atomic"

// Ring is a bounded MPSC queue of uint64 values (Vyukov-style sequence
// ring). Producers never block: TryPush fails when the ring is full,
// which is acceptable for promotion hints — dropping one only delays a
// promotion. The single consumer drains with TryPop; consumer exclusivity
// must be provided by the caller (e.g. "holder of the list lock drains").
type Ring struct {
	mask uint64
	// head is the next slot to consume, tail the next slot to produce.
	head  atomic.Uint64
	tail  atomic.Uint64
	slots []slot
}

type slot struct {
	// seq encodes the slot's state: seq == index means free for the
	// producer that claims index; seq == index+1 means filled and ready
	// for the consumer at index.
	seq atomic.Uint64
	val uint64
}

// NewRing returns a ring holding up to capacity values (rounded up to a
// power of two, minimum 2).
func NewRing(capacity int) *Ring {
	size := 2
	for size < capacity {
		size *= 2
	}
	r := &Ring{mask: uint64(size - 1), slots: make([]slot, size)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// TryPush enqueues v; it returns false when the ring is full.
func (r *Ring) TryPush(v uint64) bool {
	for {
		tail := r.tail.Load()
		s := &r.slots[tail&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == tail:
			// The slot is free; claim it.
			if r.tail.CompareAndSwap(tail, tail+1) {
				s.val = v
				s.seq.Store(tail + 1) // publish
				return true
			}
		case seq < tail:
			// The consumer has not freed this slot yet: full.
			return false
		default:
			// Another producer claimed tail; retry with a fresh load.
		}
	}
}

// TryPop dequeues the oldest value. Only one goroutine may consume at a
// time.
func (r *Ring) TryPop() (uint64, bool) {
	head := r.head.Load()
	s := &r.slots[head&r.mask]
	if s.seq.Load() != head+1 {
		return 0, false // empty (or the producer has not published yet)
	}
	v := s.val
	s.seq.Store(head + uint64(len(r.slots))) // mark free for a future lap
	r.head.Store(head + 1)
	return v, true
}

// Drain pops up to max values, invoking f for each, and returns the count.
func (r *Ring) Drain(f func(uint64), max int) int {
	n := 0
	for n < max {
		v, ok := r.TryPop()
		if !ok {
			break
		}
		f(v)
		n++
	}
	return n
}
