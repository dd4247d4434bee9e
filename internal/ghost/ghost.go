// Package ghost implements the ghost FIFO queue of §4.2: a bucket-based
// hash table of 4-byte object fingerprints plus logical insertion
// timestamps. A ghost entry is "in the queue" when fewer than the queue's
// capacity of insertions have happened since it was inserted; expired
// entries are not removed eagerly — their slots are reclaimed on collision,
// exactly as the paper describes.
//
// The table stores no object data. A slot is 8 bytes — the fingerprint
// and the low 32 bits of the insertion time — a bucket of four is half a
// cache line, and the table keeps 2–4 slots per tracked entry (2x
// headroom, rounded up to a power of two): 16–32 bytes per ghost entry.
//
// Ages are wrapping 32-bit differences from the queue's 64-bit clock,
// which is exact while an age stays below 2³²: capacity is clamped below
// 2³¹, and once every 2³¹ insertions a scrub frees every slot that is not
// live, so no slot is ever older than 2³² − 1 insertions. The one
// observable difference from 64-bit timestamps is that an entry already
// expired when a scrub ran cannot be revived by a later Resize upward.
package ghost

import (
	"sort"

	"s3fifo/internal/sketch"
)

const (
	slotsPerBucket = 4

	// maxCapacity keeps every live age, and the scrub period, below 2³¹.
	maxCapacity = 1<<31 - 1
)

type slot struct {
	fingerprint uint32 // 0 = unused (locate never produces it)
	insertedAt  uint32 // low 32 bits of the queue clock at insertion
}

// Queue is a fixed-capacity ghost FIFO queue.
type Queue struct {
	buckets  [][slotsPerBucket]slot
	mask     uint64
	capacity uint64 // number of insertions an entry survives
	clock    uint64 // total insertions so far
	hits     uint64 // successful Contains lookups (for adaptive variants)
}

// New returns a ghost queue that remembers approximately the last capacity
// insertions.
func New(capacity int) *Queue {
	capacity = min(max(capacity, 1), maxCapacity)
	return &Queue{
		buckets:  make([][slotsPerBucket]slot, bucketsFor(capacity)),
		mask:     uint64(bucketsFor(capacity) - 1),
		capacity: uint64(capacity),
	}
}

// bucketsFor aims for ~2 slots of headroom per tracked entry so valid
// entries are rarely displaced by collisions before they expire.
func bucketsFor(capacity int) int {
	nBuckets := 1
	for nBuckets*slotsPerBucket < capacity*2 {
		nBuckets *= 2
	}
	return nBuckets
}

// Capacity returns the number of insertions an entry survives.
func (q *Queue) Capacity() int { return int(q.capacity) }

// Resize changes the queue capacity. Shrinking implicitly expires the
// oldest entries; growing lets future entries live longer (existing entries
// keep their original timestamps). When the new capacity exceeds the
// headroom the bucket array was built for, the table regrows and live
// entries migrate, so a queue resized upward keeps its collision rate.
func (q *Queue) Resize(capacity int) {
	capacity = min(max(capacity, 1), maxCapacity)
	q.capacity = uint64(capacity)
	if need := bucketsFor(capacity); need > len(q.buckets) {
		q.regrow(need)
	}
}

// regrow rehashes live entries into a larger bucket array. Bucket indices
// are derived from the fingerprint alone (see bucketOf), which is what
// makes migration possible: the original keys are gone.
func (q *Queue) regrow(nBuckets int) {
	old := q.buckets
	q.buckets = make([][slotsPerBucket]slot, nBuckets)
	q.mask = uint64(nBuckets - 1)
	for i := range old {
		for _, s := range old[i] {
			if !q.live(s) {
				continue
			}
			bucket := &q.buckets[q.bucketOf(s.fingerprint)]
			victim, ok := 0, false
			for j := range bucket {
				if !q.live(bucket[j]) {
					victim, ok = j, true
					break
				}
				if bucket[j].insertedAt < bucket[victim].insertedAt {
					victim = j
				}
			}
			// Prefer dropping the older entry on (rare) migration overflow.
			if ok || bucket[victim].insertedAt < s.insertedAt {
				bucket[victim] = s
			}
		}
	}
}

// bucketOf maps a fingerprint to its bucket. Deriving the bucket from the
// fingerprint (rather than from independent hash bits) lets Resize migrate
// entries after the keys are gone; fingerprints are themselves hashes, so
// the spread is unchanged.
func (q *Queue) bucketOf(fp uint32) uint64 {
	return (uint64(fp) * 0x9E3779B97F4A7C15 >> 32) & q.mask
}

func (q *Queue) locate(key uint64) (bucket uint64, fp uint32) {
	h := sketch.Hash(key, 0xD00D)
	fp = uint32(h >> 32)
	if fp == 0 {
		fp = 1 // reserve 0 so a zero-value slot never matches
	}
	return q.bucketOf(fp), fp
}

// age is the number of insertions since s was inserted or refreshed.
func (q *Queue) age(s slot) uint32 { return uint32(q.clock) - s.insertedAt }

func (q *Queue) live(s slot) bool {
	return s.fingerprint != 0 && uint64(q.age(s)) < q.capacity
}

// scrub frees every slot that is not live, so that the survivors' ages
// are all below 2³¹ (see the package doc).
func (q *Queue) scrub() {
	for i := range q.buckets {
		for j, s := range q.buckets[i] {
			if !q.live(s) {
				q.buckets[i][j] = slot{}
			}
		}
	}
}

// Insert records key as freshly evicted. Inserting an existing live entry
// refreshes its timestamp rather than consuming another slot.
func (q *Queue) Insert(key uint64) {
	_, fp := q.locate(key)
	q.InsertFingerprint(fp)
}

// InsertFingerprint records a fingerprint directly, bypassing key
// hashing. The snapshot-restore path uses it to replay fingerprints
// exported from a previous process — the original keys are gone, which
// is workable for the same reason Resize's migration is: bucket indices
// derive from the fingerprint alone.
func (q *Queue) InsertFingerprint(fp uint32) {
	if fp == 0 {
		fp = 1 // reserve 0 so a zero-value slot never matches
	}
	q.clock++
	if q.clock%(1<<31) == 0 {
		q.scrub()
	}
	now := uint32(q.clock)
	bucket := &q.buckets[q.bucketOf(fp)]
	// Refresh if present.
	for i := range bucket {
		if bucket[i].fingerprint == fp {
			bucket[i].insertedAt = now
			return
		}
	}
	// Prefer an unused or expired slot; otherwise displace the oldest
	// (collision reclamation per §4.2).
	victim := 0
	for i := range bucket {
		if !q.live(bucket[i]) {
			victim = i
			break
		}
		if q.age(bucket[i]) > q.age(bucket[victim]) {
			victim = i
		}
	}
	bucket[victim] = slot{fingerprint: fp, insertedAt: now}
}

// Contains reports whether key is currently in the ghost queue.
func (q *Queue) Contains(key uint64) bool {
	b, fp := q.locate(key)
	bucket := &q.buckets[b]
	for i := range bucket {
		if bucket[i].fingerprint == fp && q.live(bucket[i]) {
			q.hits++
			return true
		}
	}
	return false
}

// Remove drops key from the queue if present (used when an object is
// re-admitted so later evictions see fresh state).
func (q *Queue) Remove(key uint64) {
	b, fp := q.locate(key)
	bucket := &q.buckets[b]
	for i := range bucket {
		if bucket[i].fingerprint == fp {
			bucket[i] = slot{}
			return
		}
	}
}

// Hits returns the number of successful Contains lookups since creation.
// S3-FIFO-D's rebalancer reads this.
func (q *Queue) Hits() uint64 { return q.hits }

// Export calls fn for every live fingerprint, oldest insertion first,
// until fn returns false. Snapshot support: replaying the fingerprints
// through InsertFingerprint in this order rebuilds a queue that expires
// entries in the same relative order as the original (linear scan plus a
// sort — snapshot-path only, never the hot path).
func (q *Queue) Export(fn func(fp uint32) bool) {
	live := make([]slot, 0, 64)
	for i := range q.buckets {
		for _, s := range q.buckets[i] {
			if q.live(s) {
				live = append(live, s)
			}
		}
	}
	sort.Slice(live, func(a, b int) bool { return q.age(live[a]) > q.age(live[b]) })
	for _, e := range live {
		if !fn(e.fingerprint) {
			return
		}
	}
}

// Len returns the number of live entries (linear scan; intended for tests
// and instrumentation, not the hot path).
func (q *Queue) Len() int {
	n := 0
	for i := range q.buckets {
		for _, s := range q.buckets[i] {
			if q.live(s) {
				n++
			}
		}
	}
	return n
}

// Sizer estimates how many ghost entries cover one flash generation of
// objects: flash bytes divided by the running mean object size. The
// simulator's flash admitters (internal/flashsim) and the real tiered
// cache's ghost admission (cache/tiered.go) size their queues with it.
type Sizer struct {
	// FlashBytes is the flash-tier capacity the ghost should mirror.
	FlashBytes uint64
	sizeSum    uint64
	sizeN      uint64
}

// Observe records one object size and returns the refreshed capacity
// estimate. resized is true every 1024 observations, when the estimate
// has been recomputed and the caller should Resize its ghost queue.
func (z *Sizer) Observe(size uint32) (entries int, resized bool) {
	z.sizeSum += uint64(size)
	z.sizeN++
	if z.sizeN%1024 != 0 {
		return 0, false
	}
	return z.Entries(), true
}

// Entries returns the current capacity estimate: one flash generation of
// mean-sized objects, with a 32 KiB mean before any observation, clamped
// to [64, 2^20].
func (z *Sizer) Entries() int {
	mean := uint64(32 << 10)
	if z.sizeN > 0 {
		mean = max(z.sizeSum/z.sizeN, 1)
	}
	return int(min(max(z.FlashBytes/mean, 64), 1<<20))
}
