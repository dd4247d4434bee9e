package cache

import (
	"sync"
	"sync/atomic"

	"s3fifo/internal/core"
	"s3fifo/internal/policy"
)

// policyEngine is the mutex-per-shard engine wrapping any policy.Policy:
// each shard pairs a policy instance with its own value store and mutex,
// so every one of the repository's ~25 eviction algorithms serves the
// same Engine interface. Hits take the shard lock (S3-FIFO's hit path
// only bumps a 2-bit counter, keeping that critical section tiny); the
// eviction hook runs under the shard lock, inside the policy's eviction
// callback.
type policyEngine struct {
	shards  []*policyShard
	mask    uint64
	onEvict func(EngineEviction)
	expired atomic.Uint64

	// Eviction-flow accounting (EngineCounters). Small/main attribution
	// comes from policy.Eviction.Queue; policies that do not report a
	// queue (every non-S3-FIFO baseline) count as main-queue evictions.
	evictSmall atomic.Uint64
	evictMain  atomic.Uint64
	deletes    atomic.Uint64
	oversized  atomic.Uint64
}

type policyShard struct {
	mu      sync.Mutex
	pol     policy.Policy
	entries map[string]*pentry // live values
	ids     map[uint64]string  // policy ID -> key
	eng     *policyEngine
}

type pentry struct {
	id        uint64
	value     []byte
	size      uint32
	expiresAt int64 // unix nanoseconds; 0 = no TTL
}

// expired reports whether e has a TTL that has passed, per the shared
// expiredAt boundary (strictly: at the exact expiry instant the entry
// still serves).
func (e *pentry) expired() bool {
	return expiredAt(e.expiresAt, now().UnixNano())
}

func newPolicyEngine(cfg engineConfig) (Engine, error) {
	pol := cfg.policy
	if pol == "" {
		pol = "s3fifo"
	}
	nShards := cfg.shards
	if nShards <= 0 {
		nShards = 16
	}
	// Round down to a power of two for cheap masking.
	for nShards&(nShards-1) != 0 {
		nShards &= nShards - 1
	}
	perShard := cfg.maxBytes / uint64(nShards)
	if perShard == 0 {
		nShards = 1
		perShard = cfg.maxBytes
	}

	mk := func() (policy.Policy, error) {
		if pol == "s3fifo" {
			// perShard is a byte budget, not the object count core's default
			// ghost sizing reads it as: start the table small and let it
			// regrow as |M| is learned, as the concurrent engine does.
			return core.NewS3FIFO(perShard, core.Options{GhostEntries: 16}), nil
		}
		if f, ok := core.Factories()[pol]; ok {
			return f(perShard), nil
		}
		return policy.New(pol, perShard)
	}

	pe := &policyEngine{mask: uint64(nShards - 1), onEvict: cfg.onEvict}
	for i := 0; i < nShards; i++ {
		p, err := mk()
		if err != nil {
			return nil, err
		}
		s := &policyShard{
			pol:     p,
			entries: make(map[string]*pentry),
			ids:     make(map[uint64]string),
			eng:     pe,
		}
		p.SetObserver(s.evicted)
		pe.shards = append(pe.shards, s)
	}
	return pe, nil
}

func (pe *policyEngine) Name() string { return "policy" }

func (pe *policyEngine) shardFor(key string) *policyShard {
	return pe.shards[hashString(key)&pe.mask]
}

// evicted is the policy's eviction observer; it runs under the shard lock
// (policies only evict inside Request/Delete calls, which we serialize).
// Expired victims are still reported as evictions — the hook receives the
// expiry and decides (the flash tier declines them).
func (s *policyShard) evicted(ev policy.Eviction) {
	key, ok := s.ids[ev.Key]
	if !ok {
		return
	}
	e := s.entries[key]
	delete(s.ids, ev.Key)
	delete(s.entries, key)
	if ev.Queue == policy.QueueSmall {
		s.eng.evictSmall.Add(1)
	} else {
		s.eng.evictMain.Add(1)
	}
	if s.eng.onEvict != nil && e != nil {
		s.eng.onEvict(EngineEviction{
			Key:       key,
			Value:     e.value,
			Size:      ev.Size,
			Freq:      ev.Freq,
			ExpiresAt: e.expiresAt,
		})
	}
}

func (pe *policyEngine) Get(key string) ([]byte, bool) {
	s := pe.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	if e.expired() {
		s.expireLocked(key, e)
		return nil, false
	}
	s.pol.Request(e.id, e.size) // resident: pure hit, no insertion
	return e.value, true
}

// GetStale implements Engine: the lookup without the lazy expiry reap.
// The policy access still fires — a stale serve is reuse evidence, and
// the lease holder's refill replaces this entry in place.
func (pe *policyEngine) GetStale(key string) ([]byte, int64, bool) {
	s := pe.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return nil, 0, false
	}
	s.pol.Request(e.id, e.size)
	return e.value, e.expiresAt, true
}

func (pe *policyEngine) Set(key string, value []byte, expiresAt int64) bool {
	s := pe.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insertLocked(key, value, expiresAt)
}

func (pe *policyEngine) Add(key string, value []byte, expiresAt int64) bool {
	s := pe.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		if !e.expired() {
			return false // resident wins over a promotion
		}
		s.expireLocked(key, e)
	}
	return s.insertLocked(key, value, expiresAt)
}

// insertLocked is the insertion path shared by Set and Add. The caller
// holds the shard lock.
func (s *policyShard) insertLocked(key string, value []byte, expiresAt int64) bool {
	size := entrySize(key, value)

	hadOld := false
	if e, ok := s.entries[key]; ok {
		if e.size == size {
			e.value = value
			e.expiresAt = expiresAt // a plain Set passes 0, clearing any TTL
			return true
		}
		s.pol.Delete(e.id)
		delete(s.ids, e.id)
		delete(s.entries, key)
		hadOld = true
	}

	// IDs are derived from the key so a re-inserted key presents the same
	// ID to the policy — this is what lets S3-FIFO's ghost queue recognize
	// recently evicted objects. A 64-bit collision between two live keys
	// is vanishingly unlikely; if one occurs, the older entry is dropped.
	id := hashString(key)
	if prev, ok := s.ids[id]; ok && prev != key {
		s.pol.Delete(id)
		delete(s.entries, prev)
		delete(s.ids, id)
	}
	s.entries[key] = &pentry{id: id, value: value, size: size, expiresAt: expiresAt}
	s.ids[id] = key
	s.pol.Request(id, size) // miss-insert; may evict others
	if !s.pol.Contains(id) {
		// Rejected (oversized for the shard): undo bookkeeping. Counted as
		// an oversized overwrite only when a resident copy was dropped.
		delete(s.ids, id)
		delete(s.entries, key)
		if hadOld {
			s.eng.oversized.Add(1)
		}
		return false
	}
	return true
}

func (pe *policyEngine) Delete(key string) bool {
	s := pe.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return false
	}
	if e.expired() {
		s.expireLocked(key, e)
		return false
	}
	s.pol.Delete(e.id)
	delete(s.ids, e.id)
	delete(s.entries, key)
	pe.deletes.Add(1)
	return true
}

func (pe *policyEngine) Contains(key string) bool {
	s := pe.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return false
	}
	if e.expired() {
		s.expireLocked(key, e)
		return false
	}
	return true
}

// expireLocked removes an expired entry; the caller holds the shard lock.
func (s *policyShard) expireLocked(key string, e *pentry) {
	s.pol.Delete(e.id)
	delete(s.ids, e.id)
	delete(s.entries, key)
	s.eng.expired.Add(1)
}

func (pe *policyEngine) Len() int {
	n := 0
	for _, s := range pe.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

func (pe *policyEngine) Used() uint64 {
	var n uint64
	for _, s := range pe.shards {
		s.mu.Lock()
		n += s.pol.Used()
		s.mu.Unlock()
	}
	return n
}

func (pe *policyEngine) Capacity() uint64 {
	var n uint64
	for _, s := range pe.shards {
		n += s.pol.Capacity()
	}
	return n
}

func (pe *policyEngine) Range(fn func(key string, value []byte, expiresAt int64) bool) {
	for _, s := range pe.shards {
		s.mu.Lock()
		for key, e := range s.entries {
			if e.expired() {
				continue
			}
			if !fn(key, e.value, e.expiresAt) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}
}

// Counters implements Engine. Ghost reinserts are read from the S3-FIFO
// core's movement counters under each shard lock (scrape-time only);
// non-S3-FIFO policies have no ghost queue and report zero.
func (pe *policyEngine) Counters() EngineCounters {
	ec := EngineCounters{
		SmallQueueEvict:    pe.evictSmall.Load(),
		MainQueueEvict:     pe.evictMain.Load(),
		TTLExpire:          pe.expired.Load(),
		ExplicitDelete:     pe.deletes.Load(),
		OversizedOverwrite: pe.oversized.Load(),
	}
	for _, s := range pe.shards {
		s.mu.Lock()
		if sf, ok := s.pol.(*core.S3FIFO); ok {
			ec.GhostReinsert += sf.Stats().InsertedToMain
		}
		s.mu.Unlock()
	}
	return ec
}

// Sample implements Engine. The policy layer does not expose per-key
// frequency counters, so the sample is an arbitrary slice of residency
// with Freq 0 — warm-up over this engine copies resident keys without
// hotness ordering. Spread across shards so a small max still samples
// the whole keyspace.
func (pe *policyEngine) Sample(max int) []KeySample {
	if max <= 0 {
		return nil
	}
	out := make([]KeySample, 0, max)
	perShard := max/len(pe.shards) + 1
	for _, s := range pe.shards {
		s.mu.Lock()
		taken := 0
		for key, e := range s.entries {
			if e.expiresAt != 0 {
				continue
			}
			out = append(out, KeySample{Key: key})
			taken++
			if taken >= perShard || len(out) >= max {
				break
			}
		}
		s.mu.Unlock()
		if len(out) >= max {
			break
		}
	}
	return out
}

// SnapshotMeta implements Engine at the fidelity this engine has: the
// policy layer owns queue structure and access history internally, so
// the export carries entries (value, TTL) as MetaMain with Freq 0 and
// no ghost records. A restored policy engine is warm in data, cold in
// access history — the documented per-engine trade-off (DESIGN.md §13);
// the concurrent engine restores the full state.
func (pe *policyEngine) SnapshotMeta(fn func(MetaRecord) bool) {
	pe.Range(func(key string, value []byte, expiresAt int64) bool {
		return fn(MetaRecord{Key: key, Value: value, ExpiresAt: expiresAt, Queue: MetaMain})
	})
}

// RestoreMeta implements Engine: entries re-insert through the normal
// policy path in stream order (so FIFO-ordered policies age them in
// snapshot order); ghost records are dropped. Entries the snapshot
// marked as having proven reuse (main-queue residents or Freq > 0)
// replay one access after insertion — without it every restored entry
// looks like a one-hit wonder and the first post-restart eviction scan
// would demote the entire working set's history at once.
func (pe *policyEngine) RestoreMeta(next func() (MetaRecord, bool)) {
	for {
		rec, ok := next()
		if !ok {
			return
		}
		if rec.Ghost {
			continue
		}
		s := pe.shardFor(rec.Key)
		s.mu.Lock()
		if s.insertLocked(rec.Key, rec.Value, rec.ExpiresAt) &&
			(rec.Queue == MetaMain || rec.Freq > 0) {
			if e, resident := s.entries[rec.Key]; resident {
				s.pol.Request(e.id, e.size)
			}
		}
		s.mu.Unlock()
	}
}

// Occupancy implements Engine: per-queue byte and entry counts sampled
// under each shard lock. Policies other than the S3-FIFO core expose no
// queue structure, so their residency is reported wholesale as main.
func (pe *policyEngine) Occupancy() QueueOccupancy {
	var occ QueueOccupancy
	for _, s := range pe.shards {
		s.mu.Lock()
		if sf, ok := s.pol.(*core.S3FIFO); ok {
			occ.SmallBytes += sf.SmallBytes()
			occ.MainBytes += sf.MainBytes()
			occ.SmallLen += sf.SmallLen()
			occ.MainLen += sf.MainLen()
			occ.GhostLen += sf.GhostLen()
		} else {
			occ.MainBytes += s.pol.Used()
			occ.MainLen += len(s.entries)
		}
		s.mu.Unlock()
	}
	return occ
}
