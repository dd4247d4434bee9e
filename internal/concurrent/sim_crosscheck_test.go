package concurrent

import (
	"fmt"
	"testing"

	"s3fifo/internal/core"
)

// simulatorMisses replays keys through the single-threaded reference
// S3-FIFO from internal/core.
func simulatorMisses(t testing.TB, keys []uint64, capacity uint64) int {
	t.Helper()
	p := core.NewS3FIFO(capacity, core.Options{})
	misses := 0
	for _, k := range keys {
		if !p.Request(k, 1) {
			misses++
		}
	}
	return misses
}

// concurrentMisses serially replays keys through a concurrent cache with
// on-demand fill, returning the miss count.
func concurrentMisses(c Cache, keys []uint64, value []byte) int {
	misses := 0
	for _, k := range keys {
		if _, ok := c.Get(k); !ok {
			misses++
			c.Set(k, value)
		}
	}
	return misses
}

// TestShardedS3FIFOHitRatioMatchesCore: sharding splits the queues and the
// ghost per shard, which perturbs eviction *order* but must not change
// eviction *quality*. On a Zipf trace the sharded concurrent S3-FIFO's hit
// ratio has to stay within half a percentage point of the single-queue
// reference simulator in internal/core. (At one shard with its batching
// off the machine makes core's decisions exactly, which
// FuzzMachineMatchesAlgorithm1 checks; the tolerance here covers the
// Fig. 8 front's own eviction batch and the split queues.)
func TestShardedS3FIFOHitRatioMatchesCore(t *testing.T) {
	w := NewZipfWorkload(50000, 500000, 1.0, 8, 7)
	const capacity = 5000
	simMisses := simulatorMisses(t, w.Keys, capacity)
	simHitRatio := 1 - float64(simMisses)/float64(len(w.Keys))
	for _, shards := range []int{1, 4, 8, 16} {
		cc := NewS3FIFOSharded(capacity, shards)
		if got := cc.Shards(); got != shards {
			t.Fatalf("Shards() = %d, want %d", got, shards)
		}
		misses := concurrentMisses(cc, w.Keys, w.Value)
		hitRatio := 1 - float64(misses)/float64(len(w.Keys))
		if diff := hitRatio - simHitRatio; diff < -0.005 || diff > 0.005 {
			t.Errorf("%d shards: hit ratio %.4f vs core %.4f (diff %+.4f, tolerance ±0.005)",
				shards, hitRatio, simHitRatio, diff)
		}
	}
}

// TestKVHitRatioMatchesCore replays the same Zipf trace through the
// string-keyed KV and the single-threaded reference simulator. The KV
// adds byte accounting (every entry here charges 24 bytes: 16-byte key +
// 8-byte value), real keys, and tombstone sweeping, none of which may
// change eviction quality: hit ratios must agree within one percentage
// point at every shard count.
func TestKVHitRatioMatchesCore(t *testing.T) {
	w := NewZipfWorkload(50000, 500000, 1.0, 8, 7)
	const objects = 5000
	simMisses := simulatorMisses(t, w.Keys, objects)
	simHitRatio := 1 - float64(simMisses)/float64(len(w.Keys))
	value := make([]byte, 8)
	const entryBytes = 16 + 8 // "%016x" key + value
	for _, shards := range []int{1, 4, 8, 16} {
		kv := NewKV(KVConfig{MaxBytes: objects * entryBytes, Shards: shards})
		misses := 0
		for _, k := range w.Keys {
			key := fmt.Sprintf("%016x", k)
			if _, ok := kv.Get(key); !ok {
				misses++
				kv.Set(key, value, 0)
			}
		}
		hitRatio := 1 - float64(misses)/float64(len(w.Keys))
		if diff := hitRatio - simHitRatio; diff < -0.01 || diff > 0.01 {
			t.Errorf("%d shards: KV hit ratio %.4f vs core %.4f (diff %+.4f, tolerance ±0.01)",
				shards, hitRatio, simHitRatio, diff)
		}
	}
}
