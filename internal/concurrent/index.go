package concurrent

import (
	"sync"
	"sync/atomic"
)

// numShards for the sharded index. Power of two.
const numShards = 64

// mix64 is the 64-bit avalanche finalizer shared by the index shards and
// the S3-FIFO queue shards, so sequential keys spread over both. It is a
// bijection, which lets the index store mix64(key) in place of the key.
func mix64(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return key
}

// shardedIndex maps 64-bit keys to *T: the read path of every cache
// except LRUStrict. A lookup is atomic loads and nothing else — no lock,
// no reader count — so goroutines hitting the same shard, or the same
// key, write no memory they share.
//
// Each shard is an open-addressed table (linear probing, at most 3/4
// full) reached through an atomic pointer. Writers are serialised by the
// shard's mutex. An insert publishes one slot, key before value, and a
// reader that loads the value before the key sees the pair whole. A
// delete closes the gap by moving later slots of the probe run back, so
// the table carries no tombstones and churn allocates nothing; seq is odd
// while slots move and a reader whose probe overlapped a move repeats it
// (see get). Growth builds a table of twice the size and swaps the
// pointer; the old table is never written again, so a reader still on it
// holds a consistent view.
//
// Values are compared by pointer identity (deleteIf), which keeps an
// eviction scan from removing a newer entry that reused the same key.
type shardedIndex[T any] struct {
	shards [numShards]indexShard[T]
}

// indexShard fills one cache line, so a writer on one shard does not
// invalidate the line the readers of the next one load.
type indexShard[T any] struct {
	mu  sync.Mutex                     // serialises writers
	seq atomic.Uint64                  // odd while a delete moves slots
	tab atomic.Pointer[[]indexSlot[T]] // length is a power of two
	n   atomic.Int64                   // mapped keys
	_   [32]byte
}

// indexSlot is empty while val is nil; key holds mix64 of the mapped key
// and is meaningful only beside a non-nil val.
type indexSlot[T any] struct {
	key atomic.Uint64
	val atomic.Pointer[T]
}

const indexMinSlots = 8

func newShardedIndex[T any]() *shardedIndex[T] {
	idx := &shardedIndex[T]{}
	for i := range idx.shards {
		slots := make([]indexSlot[T], indexMinSlots)
		idx.shards[i].tab.Store(&slots)
	}
	return idx
}

// probe walks h's probe run and returns the slot holding h, or the empty
// slot that ends the run (val nil). A run always ends: the table is never
// more than 3/4 full.
func probe[T any](slots []indexSlot[T], h uint64) (i uint64, val *T) {
	mask := uint64(len(slots) - 1)
	for i = (h / numShards) & mask; ; i = (i + 1) & mask {
		val = slots[i].val.Load()
		if val == nil || slots[i].key.Load() == h {
			return i, val
		}
	}
}

func (idx *shardedIndex[T]) get(key uint64) (*T, bool) {
	h := mix64(key)
	s := &idx.shards[h%numShards]
	if seq := s.seq.Load(); seq&1 == 0 {
		_, v := probe(*s.tab.Load(), h)
		if s.seq.Load() == seq {
			return v, v != nil
		}
	}
	// A delete moved slots under the probe: repeat it with writers held
	// out. Rare — the window is a few stores on one shard of 64.
	s.mu.Lock()
	_, v := probe(*s.tab.Load(), h)
	s.mu.Unlock()
	return v, v != nil
}

// putIfAbsent stores v unless key is already mapped; it returns the
// existing value and whether one was found.
func (idx *shardedIndex[T]) putIfAbsent(key uint64, v *T) (*T, bool) {
	h := mix64(key)
	s := &idx.shards[h%numShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	slots := *s.tab.Load()
	i, old := probe(slots, h)
	if old != nil {
		return old, true
	}
	if n := int(s.n.Load()) + 1; n*4 > len(slots)*3 {
		grown := make([]indexSlot[T], 2*len(slots))
		for j := range slots {
			if p := slots[j].val.Load(); p != nil {
				k := slots[j].key.Load()
				at, _ := probe(grown, k)
				grown[at].key.Store(k)
				grown[at].val.Store(p)
			}
		}
		s.tab.Store(&grown)
		slots = grown
		i, _ = probe(slots, h)
	}
	slots[i].key.Store(h)
	slots[i].val.Store(v)
	s.n.Add(1)
	return nil, false
}

// deleteIf removes key only while it still maps to v.
func (idx *shardedIndex[T]) deleteIf(key uint64, v *T) {
	h := mix64(key)
	s := &idx.shards[h%numShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	slots := *s.tab.Load()
	gap, cur := probe(slots, h)
	if cur == nil || cur != v {
		return
	}
	mask := uint64(len(slots) - 1)
	s.seq.Add(1)
	for j := (gap + 1) & mask; ; j = (j + 1) & mask {
		p := slots[j].val.Load()
		if p == nil {
			break
		}
		// The entry at j may fill the gap only if the gap lies on its own
		// probe run, i.e. it sits at least as far from home as from the gap.
		k := slots[j].key.Load()
		if (j-k/numShards)&mask >= (j-gap)&mask {
			slots[gap].key.Store(k)
			slots[gap].val.Store(p)
			gap = j
		}
	}
	slots[gap].val.Store(nil)
	s.seq.Add(1)
	s.n.Add(-1)
}

// forEach visits every value; fn returning false stops the walk. A
// shard's values are copied out under its mutex and visited outside it,
// so fn may take as long as it likes without holding writers up, and a
// value mapped for the whole walk is visited exactly once.
func (idx *shardedIndex[T]) forEach(fn func(*T) bool) {
	var vals []*T
	for i := range idx.shards {
		s := &idx.shards[i]
		s.mu.Lock()
		slots := *s.tab.Load()
		vals = vals[:0]
		for j := range slots {
			if p := slots[j].val.Load(); p != nil {
				vals = append(vals, p)
			}
		}
		s.mu.Unlock()
		for _, p := range vals {
			if !fn(p) {
				return
			}
		}
	}
}

func (idx *shardedIndex[T]) len() int {
	var n int64
	for i := range idx.shards {
		n += idx.shards[i].n.Load()
	}
	return int(n)
}
