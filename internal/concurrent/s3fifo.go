package concurrent

// S3FIFO is the Fig. 8 front of the concurrent S3-FIFO machine (shard.go):
// the Cache interface over uint64 keys. The key is its own hash and every
// object charges one unit, so the machine's "bytes" are objects and the
// capacity is an object count — the same engine the server runs, measured
// under the same harness as the baselines.
type S3FIFO struct {
	machine[uint64]
}

const (
	// evictBatchMax objects are evicted per over-capacity trigger, so the
	// next ~batch Sets on the shard skip the eviction scan entirely.
	evictBatchMax = 8

	// minShardCapacity keeps automatically chosen shards large enough that
	// per-shard queues and ghosts remain statistically meaningful.
	minShardCapacity = 128
)

// NewS3FIFO returns a concurrent S3-FIFO holding capacity objects with an
// automatically chosen shard count; 10% of each shard forms its small
// probationary queue.
func NewS3FIFO(capacity int) *S3FIFO { return NewS3FIFOSharded(capacity, 0) }

// NewS3FIFOSharded returns a concurrent S3-FIFO with an explicit queue
// shard count (rounded up to a power of two, capped at 64). shards <= 0
// picks a default from GOMAXPROCS, shrunk until every shard holds at least
// minShardCapacity objects.
func NewS3FIFOSharded(capacity, shards int) *S3FIFO {
	c := &S3FIFO{}
	c.init(uint64(max(capacity, 0)), shards, minShardCapacity, func(shardCap uint64) shardTuning {
		batch := max(min(evictBatchMax, (shardCap+3)/4), 1)
		return shardTuning{
			// The incoming object is one unit of the batch.
			evictSlack:   batch - 1,
			ghostEntries: int(max(shardCap, 16)),
		}
	})
	return c
}

// Name implements Cache.
func (c *S3FIFO) Name() string { return "s3fifo" }

// Get implements Cache: the lock-free hit path.
func (c *S3FIFO) Get(key uint64) ([]byte, bool) { return c.get(key, key) }

// Set implements Cache: the miss path, serialized on the owning shard's
// mutex only.
func (c *S3FIFO) Set(key uint64, value []byte) { c.set(key, key, value, 1, 0) }

// Delete removes key if present, taking no locks.
func (c *S3FIFO) Delete(key uint64) { c.del(key, key) }

// Capacity implements Cache.
func (c *S3FIFO) Capacity() int { return int(c.capacity) }
