package concurrent

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"s3fifo/internal/ghost"
)

// machine is the one concurrent S3-FIFO (§4.3, §5.3) behind both typed
// fronts, KV (string keys, byte budget) and S3FIFO (uint64 keys, object
// budget). The property the paper leans on is that FIFO queues never
// reorder on reads: a hit is a sharded hash lookup, a key check, and at
// most one atomic increment of a 2-bit frequency counter — no list
// manipulation and no locks. Only the miss path (insertion + eviction)
// takes a lock, and that path is sharded: N independent shards (a power
// of two, keyed by the same mix as the index), each with its own
// small/main FIFO queues, ghost queue, and mutex, so concurrent misses on
// different shards never contend.
//
// Within a shard the remaining serial work is amortized off the hot path,
// Cachelib-style:
//
//   - Delete never touches the queues; it tombstones the entry and lets
//     go of its value. S's budget and G's size count live entries, as
//     Algorithm 1 does, so tombstones are swept in batch at no cost to
//     any decision.
//   - Eviction runs down to a low watermark, so most inserts only push
//     onto a queue and the eviction scan's cache misses are paid in bursts.
//   - The ghost queue is resized only when the main queue length has
//     drifted ≥1/8 from the last resize, not once per evicted object.
//
// The caller supplies every entry's 64-bit hash (the index and shard key)
// and its charged size; the machine never looks inside a key beyond
// comparing it. One exception to "writes outside the miss path are
// lock-free": when an eviction hook is configured, overwrites and deletes
// also serialize on the shard mutex. The hook runs under that mutex, and
// a caller that supersedes a value (re-set, delete) must not be able to
// overtake an in-flight hook call for the same key — the cache facade
// orders its second-tier tombstone after the hook's demotion write by
// exactly this serialization (see cache/tiered.go).
type machine[K comparable] struct {
	capacity  uint64
	index     *shardedIndex[entry[K]]
	shards    []*shard[K]
	shardMask uint64
	now       func() int64
	onEvict   func(key K, value []byte, size uint32, freq int, expiresAt int64, main bool)

	// Eviction-flow accounting (see Counters): which Algorithm 1 branch
	// each removal or reinsertion took.
	evictSmall     atomic.Uint64
	evictMain      atomic.Uint64
	ghostReinserts atomic.Uint64
	expired        atomic.Uint64
	deletes        atomic.Uint64
	oversized      atomic.Uint64
}

// shard is one independent slice of the cache: its own budget, queues,
// ghost, and miss-path mutex. A key maps to exactly one shard for life.
type shard[K comparable] struct {
	mu          sync.Mutex // guards the queues and the ghost
	capacity    uint64
	smallTarget uint64
	small       ring[K]
	main        ring[K]
	ghost       *ghost.Queue
	// ghostSizedFor is the live main-queue length the ghost was last sized
	// to; Resize runs only when the current length drifts ≥1/8 from it.
	ghostSizedFor int
	shardTuning
	// liveBytes and liveLen count the live entries of S ([inSmall]) and M
	// ([inMain]), tombstones left out, as Algorithm 1 counts them. The
	// lock-free retire debits them; all else that moves them holds mu.
	liveBytes, liveLen [2]atomic.Int64
}

// shardTuning is the per-shard numbers the two fronts choose differently.
type shardTuning struct {
	// evictSlack is the batch-eviction watermark: eviction overshoots by
	// this much so the following inserts skip the scan.
	evictSlack uint64
	// ghostEntries sizes the ghost table before |M| is known.
	ghostEntries int
	fixedGhost   bool // G stays at ghostEntries, as core's FixedGhost; tests only
}

// entry fits the 64-byte size class with a string key, one cache line, and
// references one value, the current one.
type entry[K comparable] struct {
	hash uint64
	key  K
	// data is the value's first byte, swapped by an in-place overwrite only
	// for a value of the same length, since vlen never changes (see value).
	data    atomic.Pointer[byte]
	vlen    uint32
	size    uint32
	expires atomic.Int64 // unix nanoseconds; 0 = no TTL
	freq    atomic.Int32
	// state is the queue the entry is (bound to be) in, or'ed with dead
	// once it is deleted, superseded or evicted. Only the shard mutex
	// holder moves an entry between queues; anyone may kill it.
	state atomic.Uint32
}

const (
	inSmall uint32 = 0
	inMain  uint32 = 1
	dead    uint32 = 2
)

func (e *entry[K]) isDead() bool { return e.state.Load()&dead != 0 }

var emptyValue byte // what data points at for an empty value: it reads back non-nil

func valueData(value []byte) *byte {
	if len(value) == 0 {
		return &emptyValue
	}
	return &value[0]
}

// value is the one way to read an entry's value: one atomic load, whole.
// A retired entry has let go of its value and reads as a miss.
func (e *entry[K]) value() ([]byte, bool) {
	if p := e.data.Load(); p != nil {
		return unsafe.Slice(p, e.vlen), true
	}
	return nil, false
}

// blockSlots sizes a queue block to the 2 KiB malloc class: 253 entry
// pointers, the link and the two cursors.
const blockSlots = 253

// block is one fixed link of a ring: slots[r:w] are queued, every other
// slot is nil.
type block[K comparable] struct {
	next  *block[K]
	r, w  int
	slots [blockSlots]*entry[K]
}

// ring is the FIFO of entries, guarded by the shard mutex: a chain of fixed blocks, pushed at the tail and popped at the
// head. It references what is queued and nothing else — a popped slot is
// nilled and a drained block leaves the chain whole — so the memory S
// needed while it was the entire cache (M starts empty) is garbage once S
// has shrunk to its 10 %, instead of an array that pins the entries
// evicted since, keys and values included. The chain is at most
// len/blockSlots + 2 blocks, plus one zeroed spare so that steady-state
// push/pop allocates nothing; no push or pop moves or copies the queue.
type ring[K comparable] struct {
	head, tail *block[K] // both nil when empty: the chain holds no empty block
	spare      *block[K]
	n          int // queued entries, tombstones included
}

func (q *ring[K]) push(e *entry[K]) {
	b := q.tail
	if b == nil || b.w == blockSlots {
		if b = q.spare; b == nil {
			b = new(block[K])
		}
		q.spare = nil
		if q.tail == nil {
			q.head = b
		} else {
			q.tail.next = b
		}
		q.tail = b
	}
	b.slots[b.w] = e
	b.w++
	q.n++
}

func (q *ring[K]) pop() *entry[K] {
	b := q.head
	if b == nil {
		return nil
	}
	e := b.slots[b.r]
	b.slots[b.r] = nil
	b.r++
	q.n--
	if b.r == b.w {
		if q.head = b.next; q.head == nil {
			q.tail = nil
		}
		q.recycle(b)
	}
	return e
}

// recycle takes a block that has left the chain: zeroed and kept as the
// spare if there is none, left to the collector otherwise.
func (q *ring[K]) recycle(b *block[K]) {
	if q.spare == nil {
		*b = block[K]{}
		q.spare = b
	}
}

func (q *ring[K]) len() int { return q.n }

// each calls fn on the queued entries in FIFO order until it returns
// false, and reports whether it reached the end.
func (q *ring[K]) each(fn func(*entry[K]) bool) bool {
	for b := q.head; b != nil; b = b.next {
		for _, e := range b.slots[b.r:b.w] {
			if !fn(e) {
				return false
			}
		}
	}
	return true
}

// sweep removes tombstoned entries in one pass, preserving FIFO order.
// Dead entries are otherwise reclaimed only when an eviction scan reaches
// them; sweeping in batch keeps delete-heavy workloads from dragging dead
// weight through every scan. The chain is rebuilt by pushing the
// survivors of each old block in turn; the writer cannot overtake the
// reader, so it allocates at most its first block.
func (q *ring[K]) sweep() {
	b := q.head
	q.head, q.tail, q.n = nil, nil, 0
	for b != nil {
		for _, e := range b.slots[b.r:b.w] {
			if !e.isDead() {
				q.push(e)
			}
		}
		next := b.next
		q.recycle(b)
		b = next
	}
}

const (
	ccMaxFreq = 3

	// smallRatio is the small queue's share of each shard: the paper's
	// fixed 10 %, which §6.2 shows needs no tuning.
	smallRatio = 0.10

	// maxShards bounds the shard count (matches the index shard count).
	maxShards = 64
)

// sweepDue says, on every locked insert, whether the shard sweeps its
// tombstones now: once they are an eighth of what it queues. A variable
// only so that a test can show that the timing moves no decision.
var sweepDue = func(dead, queued int64) bool { return dead > 0 && dead*8 >= queued }

// init builds the shards. shards is rounded up to a power of two and
// capped at maxShards; <= 0 picks a default from GOMAXPROCS, shrunk until
// every shard holds at least minShard. tune gives each shard's
// front-specific numbers from its capacity.
func (m *machine[K]) init(capacity uint64, shards int, minShard uint64, tune func(shardCapacity uint64) shardTuning) {
	n := shards
	if n <= 0 {
		n = max(runtime.GOMAXPROCS(0), 8)
	}
	p := 1
	for p < n && p < maxShards {
		p <<= 1
	}
	n = p
	if shards <= 0 {
		for n > 1 && capacity/uint64(n) < minShard {
			n >>= 1
		}
	}
	for n > 1 && capacity/uint64(n) < 1 {
		n >>= 1
	}
	m.capacity = capacity
	m.index = newShardedIndex[entry[K]]()
	m.shards = make([]*shard[K], n)
	m.shardMask = uint64(n - 1)
	m.now = func() int64 { return time.Now().UnixNano() }
	base, extra := capacity/uint64(n), capacity%uint64(n)
	for i := range m.shards {
		c := base
		if uint64(i) < extra {
			c++
		}
		t := tune(c)
		m.shards[i] = &shard[K]{
			capacity:    c,
			smallTarget: max(uint64(float64(c)*smallRatio), 1),
			ghost:       ghost.New(t.ghostEntries),
			shardTuning: t,
		}
	}
}

// Shards returns the queue shard count.
func (m *machine[K]) Shards() int { return len(m.shards) }

func (m *machine[K]) shardOf(hash uint64) *shard[K] {
	return m.shards[mix64(hash)&m.shardMask]
}

// held reads queue q's live size and length, clamping the transient
// negatives of a retire that overtakes its entry's first push.
func (s *shard[K]) held(q uint32) (bytes uint64, n int) {
	return uint64(max(s.liveBytes[q].Load(), 0)), int(max(s.liveLen[q].Load(), 0))
}

func (s *shard[K]) usedBytes() uint64 {
	return uint64(max(s.liveBytes[inSmall].Load()+s.liveBytes[inMain].Load(), 0))
}

// charge adds n entries of e's size to queue q's live counts.
func (s *shard[K]) charge(q uint32, e *entry[K], n int64) {
	s.liveBytes[q].Add(n * int64(e.size))
	s.liveLen[q].Add(n)
}

// lookup finds the live entry for key, if any.
func (m *machine[K]) lookup(hash uint64, key K) *entry[K] {
	e, ok := m.index.get(hash)
	if !ok || e.isDead() || e.key != key {
		return nil
	}
	return e
}

// find is lookup with the lazy TTL check: an expired entry is reaped.
func (m *machine[K]) find(hash uint64, key K) *entry[K] {
	e := m.lookup(hash, key)
	if e != nil {
		if exp := e.expires.Load(); exp != 0 && m.now() > exp {
			m.expire(e)
			return nil
		}
	}
	return e
}

// touch is the capped atomic increment: most requests for popular
// objects are already at the cap and perform no write at all (§4.3.1).
func (e *entry[K]) touch() {
	for {
		f := e.freq.Load()
		if f >= ccMaxFreq || e.freq.CompareAndSwap(f, f+1) {
			return
		}
	}
}

// get is the lock-free hit path: hash lookup, key verification, lazy TTL
// check, capped atomic frequency bump.
func (m *machine[K]) get(hash uint64, key K) ([]byte, bool) {
	e := m.find(hash, key)
	if e == nil {
		return nil, false
	}
	v, ok := e.value()
	if ok {
		e.touch()
	}
	return v, ok
}

// getStale returns key's resident value and absolute expiry (0 = no TTL)
// without the lazy TTL reap: an expired entry is returned as-is, so the
// stale-while-revalidate path can serve it while a lease holder refills.
// The frequency bump matches get — a stale serve is still evidence of
// reuse, and the refill lands as an in-place replacement of this entry.
func (m *machine[K]) getStale(hash uint64, key K) ([]byte, int64, bool) {
	e := m.lookup(hash, key)
	if e == nil {
		return nil, 0, false
	}
	v, ok := e.value()
	if !ok {
		return nil, 0, false
	}
	exp := e.expires.Load()
	e.touch()
	return v, exp, true
}

// contains reports whether key is resident and unexpired, without
// touching its frequency.
func (m *machine[K]) contains(hash uint64, key K) bool { return m.find(hash, key) != nil }

func newEntry[K comparable](hash uint64, key K, value []byte, size uint32, expiresAt int64) *entry[K] {
	e := &entry[K]{hash: hash, key: key, vlen: uint32(len(value)), size: size}
	e.data.Store(valueData(value))
	e.expires.Store(expiresAt)
	return e
}

// set inserts or replaces the value for key. It returns false when the
// entry is larger than its shard's capacity or its value too long for vlen
// (the stale copy, if any, is dropped so the caller can never read the old
// value back).
func (m *machine[K]) set(hash uint64, key K, value []byte, size uint32, expiresAt int64) bool {
	s := m.shardOf(hash)
	if uint64(size) > s.capacity || uint64(len(value)) > math.MaxUint32 {
		if e, ok := m.index.get(hash); ok && e.key == key {
			if m.retire(e) {
				m.oversized.Add(1)
			}
		}
		return false
	}
	var e *entry[K] // allocated only once the probe finds no entry to overwrite
	for {
		old, loaded := m.index.get(hash)
		if !loaded {
			if e == nil {
				e = newEntry(hash, key, value, size, expiresAt)
			}
			if old, loaded = m.index.putIfAbsent(hash, e); !loaded {
				break // we own the insertion
			}
		}
		if m.onEvict == nil && !old.isDead() && old.key == key && old.size == size && int(old.vlen) == len(value) {
			// Same key, charge and length: replace in place, lock-free,
			// keeping frequency and queue slot. With an eviction hook,
			// overwrites serialize on the shard mutex instead, so they
			// cannot overtake an in-flight hook call (demotion).
			old.data.Store(valueData(value))
			old.expires.Store(expiresAt)
			return true
		}
		// Dead (mid-eviction), a hash collision with another key, a change
		// of charge or length, or a hooked overwrite: retire the old
		// mapping and insert fresh through the locked path.
		m.retire(old)
		m.index.deleteIf(hash, old) // clear a mapping retired by a racing caller
	}
	s.mu.Lock()
	s.insertLocked(m, e)
	s.mu.Unlock()
	return true
}

// add inserts value only if key is not resident (the second-tier
// promotion path: a concurrent set must win over a stale promote). It
// returns whether the insert happened.
func (m *machine[K]) add(hash uint64, key K, value []byte, size uint32, expiresAt int64) bool {
	s := m.shardOf(hash)
	if uint64(size) > s.capacity || uint64(len(value)) > math.MaxUint32 {
		return false
	}
	e := newEntry(hash, key, value, size, expiresAt)
	for {
		old, loaded := m.index.putIfAbsent(hash, e)
		if !loaded {
			break
		}
		if !old.isDead() {
			// Resident — or a live hash collision with another key, which
			// keeps its slot: add is best-effort by contract.
			return false
		}
		m.index.deleteIf(hash, old)
	}
	s.mu.Lock()
	s.insertLocked(m, e)
	s.mu.Unlock()
	return true
}

// del removes key if present and reports whether a live value was held:
// an entry whose TTL has passed goes the way Contains would send it, as
// an expiry, and reports false. Without an eviction hook del takes no
// locks: the queue slot is tombstoned and lazily reclaimed, which is how
// a ring-buffer deployment behaves (§4.2). With a hook it takes the shard
// mutex before it looks, so it cannot overtake an in-flight hook call for
// the same key (whose eviction has already unmapped it).
func (m *machine[K]) del(hash uint64, key K) bool {
	if m.onEvict != nil {
		s := m.shardOf(hash)
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	if e := m.find(hash, key); e == nil || !m.retire(e) {
		return false
	}
	m.deletes.Add(1)
	return true
}

// retire kills e (delete or supersession): the index mapping is cleared,
// the value let go, and the queue slot tombstoned, no longer counted live,
// until an eviction scan reaches it or a batched sweep collects it.
// Reports whether this caller won the kill race.
func (m *machine[K]) retire(e *entry[K]) bool {
	q := e.state.Load()
	for q&dead == 0 && !e.state.CompareAndSwap(q, q|dead) {
		q = e.state.Load() // moved from S to M meanwhile
	}
	if q&dead != 0 {
		return false
	}
	e.data.Store(nil)
	m.index.deleteIf(e.hash, e)
	m.shardOf(e.hash).charge(q, e, -1)
	return true
}

// expire retires a TTL-expired entry, counting it as an expiry rather
// than an eviction. The eviction hook is not called: expiry is not a
// demotion point (the second tier tracks TTLs itself).
func (m *machine[K]) expire(e *entry[K]) {
	if m.retire(e) {
		m.expired.Add(1)
	}
}

// insertLocked queues a fresh entry: into M when the ghost remembers its
// hash (counted as a ghost reinsert), into S otherwise. The caller holds
// the shard mutex.
func (s *shard[K]) insertLocked(m *machine[K], e *entry[K]) {
	s.makeRoomLocked(m, e.size)
	toMain := s.ghost.Contains(e.hash)
	if toMain {
		s.ghost.Remove(e.hash)
		m.ghostReinserts.Add(1)
	}
	s.pushLocked(e, toMain)
}

// makeRoomLocked sweeps the tombstones out once they are due and, when an
// entry of the given size would overflow the shard, evicts down to the
// low watermark.
func (s *shard[K]) makeRoomLocked(m *machine[K], size uint32) {
	queued := int64(s.small.len() + s.main.len())
	if sweepDue(queued-s.liveLen[inSmall].Load()-s.liveLen[inMain].Load(), queued) {
		s.small.sweep()
		s.main.sweep()
	}
	if s.usedBytes()+uint64(size) > s.capacity {
		s.evictLocked(m, uint64(size))
	}
}

// pushLocked appends e to the chosen queue and charges its size. An entry
// retired before its first push was debited from S, so it goes there.
func (s *shard[K]) pushLocked(e *entry[K], toMain bool) {
	if toMain && e.state.CompareAndSwap(inSmall, inMain) {
		s.main.push(e)
		s.charge(inMain, e, 1)
		return
	}
	s.small.push(e)
	s.charge(inSmall, e, 1)
}

// evictLocked evicts down to the low watermark (capacity − incoming −
// slack) so the following inserts skip the scan, then re-checks the
// ghost size once for the whole batch.
func (s *shard[K]) evictLocked(m *machine[K], incoming uint64) {
	target := uint64(0)
	if incoming < s.capacity {
		target = s.capacity - incoming
	}
	low := uint64(0)
	if s.evictSlack < target {
		low = target - s.evictSlack
	}
	for s.usedBytes() > low {
		if !s.evictOneLocked(m) {
			break
		}
	}
	s.maybeResizeGhostLocked()
}

// maybeResizeGhostLocked tracks |G| = |M| (§4.2) lazily: the ghost is
// resized only when M's live length has drifted at least 1/8 from the
// length it was last sized to.
func (s *shard[K]) maybeResizeGhostLocked() {
	_, n := s.held(inMain)
	d := n - s.ghostSizedFor
	if d < 0 {
		d = -d
	}
	if !s.fixedGhost && d*8 >= max(s.ghostSizedFor, 16) {
		s.ghost.Resize(max(n, 16))
		s.ghostSizedFor = n
	}
}

func (s *shard[K]) evictOneLocked(m *machine[K]) bool {
	if s.liveBytes[inSmall].Load() >= int64(s.smallTarget) || s.liveLen[inMain].Load() <= 0 {
		return s.evictFromSmallLocked(m)
	}
	return s.evictFromMainLocked(m)
}

// evictFromSmallLocked is Algorithm 1's EVICTS. The move S→M and the
// eviction both CAS the entry from live in S, so an entry retired there
// meanwhile (its size already debited) is dropped instead.
func (s *shard[K]) evictFromSmallLocked(m *machine[K]) bool {
	for {
		e := s.small.pop()
		if e == nil {
			return s.evictFromMainLocked(m)
		}
		if e.freq.Load() > 1 {
			if e.state.CompareAndSwap(inSmall, inMain) {
				e.freq.Store(0)
				s.main.push(e)
				s.charge(inSmall, e, -1)
				s.charge(inMain, e, 1)
			}
			continue
		}
		freq := int(e.freq.Load())
		if !e.state.CompareAndSwap(inSmall, inSmall|dead) {
			continue
		}
		s.ghost.Insert(e.hash)
		m.evictSmall.Add(1)
		s.finishEvictLocked(m, inSmall, e, freq)
		return true
	}
}

func (s *shard[K]) evictFromMainLocked(m *machine[K]) bool {
	for {
		e := s.main.pop()
		if e == nil {
			return false
		}
		if e.isDead() {
			continue
		}
		if f := e.freq.Load(); f > 0 {
			e.freq.Store(f - 1)
			s.main.push(e)
			continue
		}
		if !e.state.CompareAndSwap(inMain, inMain|dead) {
			continue
		}
		m.evictMain.Add(1)
		s.finishEvictLocked(m, inMain, e, 0)
		return true
	}
}

// finishEvictLocked settles one eviction from queue q: index removal,
// accounting, and the hook. The caller holds the shard mutex and has won
// the kill, so the entry still holds its value.
func (s *shard[K]) finishEvictLocked(m *machine[K], q uint32, e *entry[K], freq int) {
	m.index.deleteIf(e.hash, e)
	s.charge(q, e, -1)
	if m.onEvict != nil {
		v, _ := e.value()
		m.onEvict(e.key, v, e.size, freq, e.expires.Load(), q == inMain)
	}
}

// Len returns the number of resident entries.
func (m *machine[K]) Len() int {
	var n int64
	for _, s := range m.shards {
		n += s.liveLen[inSmall].Load() + s.liveLen[inMain].Load()
	}
	return int(max(n, 0))
}

// Used returns the resident size (bytes for KV, objects for S3FIFO).
func (m *machine[K]) Used() uint64 {
	var n int64
	for _, s := range m.shards {
		n += s.liveBytes[inSmall].Load() + s.liveBytes[inMain].Load()
	}
	return uint64(max(n, 0))
}
