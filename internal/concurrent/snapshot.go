// Metadata snapshot support: exporting and rebuilding the full S3-FIFO
// state — queue membership, per-entry frequency, and ghost-queue
// fingerprints — so a restarted process resumes with the eviction
// policy's learned state intact, not just the data. A value-only restore
// loses which entries had proven reuse (everything lands in the small
// queue as a one-hit wonder) and forgets the ghost queue entirely, so
// the first minutes after restart re-learn what the previous process
// already knew; replaying metadata skips that.
package concurrent

// MetaQueue says which S3-FIFO queue a snapshot entry was resident in.
type MetaQueue uint8

const (
	MetaSmall MetaQueue = 0
	MetaMain  MetaQueue = 1
)

// MetaRecord is one record of an engine's metadata snapshot: either a
// resident entry (with value, TTL, queue membership, and frequency) or
// one ghost-queue fingerprint (with the owning shard's index). The
// snapshot v2 file format (cache/snapshot.go) serializes these records
// verbatim.
type MetaRecord struct {
	// Ghost distinguishes the two record kinds.
	Ghost bool

	// Entry fields (Ghost false).
	Key       string
	Value     []byte
	ExpiresAt int64
	Freq      int
	Queue     MetaQueue

	// Ghost fields (Ghost true).
	Shard       uint32
	Fingerprint uint32
}

// SnapshotMeta exports the full eviction state, shard by shard under
// each shard's mutex: the small queue in FIFO order, then the main
// queue in FIFO order, then the ghost fingerprints oldest-first. fn
// returning false stops the walk. Record order is the restore contract
// — RestoreMeta pushes entries in stream order, so FIFO positions
// survive the round trip (even across a shard-count change, since each
// queue's relative order is preserved per record stream).
func (c *KV) SnapshotMeta(fn func(MetaRecord) bool) {
	nowNanos := c.now()
	emit := func(e *entry[string], queue MetaQueue) bool {
		exp := e.expires.Load()
		v, ok := e.value()
		if !ok || e.isDead() || exp != 0 && nowNanos > exp {
			return true
		}
		return fn(MetaRecord{
			Key:       e.key,
			Value:     v,
			ExpiresAt: exp,
			Freq:      int(e.freq.Load()),
			Queue:     queue,
		})
	}
	for si, s := range c.shards {
		s.mu.Lock()
		ok := s.small.each(func(e *entry[string]) bool { return emit(e, MetaSmall) }) &&
			s.main.each(func(e *entry[string]) bool { return emit(e, MetaMain) })
		if ok {
			shard := uint32(si)
			s.ghost.Export(func(fp uint32) bool {
				ok = fn(MetaRecord{Ghost: true, Shard: shard, Fingerprint: fp})
				return ok
			})
		}
		s.mu.Unlock()
		if !ok {
			return
		}
	}
}

// RestoreMeta rebuilds eviction state from a metadata export, intended
// for a freshly constructed, empty KV. Entries are pushed into their
// recorded queue in stream order; ghost fingerprints are replayed into
// their shard's ghost queue (modulo the current shard count, so a
// restore into a differently sharded KV degrades to approximately right
// rather than failing). Entries that no longer fit evict exactly as
// live inserts would, hook included.
func (c *KV) RestoreMeta(next func() (MetaRecord, bool)) {
	for {
		rec, ok := next()
		if !ok {
			break
		}
		if rec.Ghost {
			s := c.shards[int(rec.Shard)%len(c.shards)]
			s.mu.Lock()
			// Entries precede ghosts in the stream, so the main queue has
			// its final length here — size the ghost to it now, or the
			// boot-sized ring (capacity for an empty cache) silently drops
			// most of the replayed fingerprints.
			s.maybeResizeGhostLocked()
			s.ghost.InsertFingerprint(rec.Fingerprint)
			s.mu.Unlock()
			continue
		}
		h := hashKV(rec.Key)
		s := c.shardOf(h)
		size := kvEntrySize(rec.Key, rec.Value)
		if uint64(size) > s.capacity {
			continue
		}
		e := newEntry(h, rec.Key, rec.Value, size, rec.ExpiresAt)
		e.freq.Store(int32(rec.Freq))
		for {
			// A duplicate key (corrupt or adversarial input) must not
			// double-charge the shard: retire the old mapping first.
			old, loaded := c.index.putIfAbsent(h, e)
			if !loaded {
				break
			}
			c.retire(old)
			c.index.deleteIf(h, old)
		}
		s.mu.Lock()
		s.makeRoomLocked(&c.machine, size)
		s.pushLocked(e, rec.Queue == MetaMain)
		s.mu.Unlock()
	}
	for _, s := range c.shards {
		s.mu.Lock()
		s.maybeResizeGhostLocked()
		s.mu.Unlock()
	}
}
