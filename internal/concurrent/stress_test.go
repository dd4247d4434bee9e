package concurrent

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// stressFront is one typed front of the machine as the stress test drives
// it: uint64 keys in, plus the white-box invariant check on the shared
// core (settled = no operation in flight).
type stressFront struct {
	get   func(key uint64) ([]byte, bool)
	set   func(key uint64, value []byte)
	del   func(key uint64)
	check func(t *testing.T, settled bool)
}

const stressObjects = 512

// stressFronts builds both fronts at the same object capacity; the KV
// front charges a fixed 18 bytes per entry (16-byte key, 2-byte value).
var stressFronts = map[string]func(shards int) stressFront{
	"s3fifo": func(shards int) stressFront {
		c := NewS3FIFOSharded(stressObjects, shards)
		return stressFront{c.Get, c.Set, c.Delete,
			func(t *testing.T, settled bool) { checkMachine(t, &c.machine, settled) }}
	},
	"kv": func(shards int) stressFront {
		c := NewKV(KVConfig{MaxBytes: stressObjects * 18, Shards: shards})
		name := func(key uint64) string { return fmt.Sprintf("%016x", key) }
		return stressFront{
			func(key uint64) ([]byte, bool) { return c.Get(name(key)) },
			func(key uint64, v []byte) { c.Set(name(key), v, 0) },
			func(key uint64) { c.Delete(name(key)) },
			func(t *testing.T, settled bool) { checkMachine(t, &c.machine, settled) }}
	},
}

// checkMachine is the invariant list both fronts share: the resident size
// never exceeds the capacity, and once the dust settles every entry still
// reachable through the index is alive — eviction and delete both unlink
// dead entries — and each shard's live queue counts add up to what it
// holds, however its retires raced its moves from S to M.
func checkMachine[K comparable](t *testing.T, m *machine[K], settled bool) {
	t.Helper()
	if used := m.Used(); used > m.capacity {
		t.Errorf("Used %d > capacity %d", used, m.capacity)
	}
	if !settled {
		return
	}
	m.index.forEach(func(e *entry[K]) bool {
		if e.isDead() {
			t.Errorf("index still maps %v to a dead entry", e.key)
		}
		return true
	})
	for i, s := range m.shards {
		s.mu.Lock()
		for q, r := range []*ring[K]{&s.small, &s.main} {
			var n, b int64
			r.each(func(e *entry[K]) bool {
				if !e.isDead() {
					n, b = n+1, b+int64(e.size)
				}
				return true
			})
			if n != s.liveLen[q].Load() || b != s.liveBytes[q].Load() {
				t.Errorf("shard %d queue %d: %d live entries / %d units queued, counted %d / %d",
					i, q, n, b, s.liveLen[q].Load(), s.liveBytes[q].Load())
			}
		}
		s.mu.Unlock()
	}
}

// TestStressInvariants hammers Get/Set/Delete from many goroutines over
// both fronts of the machine and checks, continuously and at the end,
// checkMachine's list plus: a Get never returns a dead entry's value —
// deleted keys stay deleted until re-set, and returned values are always
// well-formed. Run under -race (make race does).
func TestStressInvariants(t *testing.T) {
	for name, build := range stressFronts {
		for _, shards := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				t.Parallel()
				c := build(shards)
				const goroutines = 8
				const opsPerG = 30000
				// sharedSpan keys are touched by everyone (contention); each
				// goroutine also owns a private key range (base g<<20) where the
				// delete-then-miss property is checked deterministically.
				const sharedSpan = 2048
				var violations atomic.Int32
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						val := []byte{'v', byte(g)}
						private := uint64(g+1) << 20
						rng := uint64(g)*0x9E3779B97F4A7C15 + 1
						for i := 0; i < opsPerG; i++ {
							rng ^= rng << 13
							rng ^= rng >> 7
							rng ^= rng << 17
							switch rng % 8 {
							case 0, 1, 2, 3: // shared-key traffic
								key := rng % sharedSpan
								if v, ok := c.get(key); ok {
									if len(v) != 2 || v[0] != 'v' {
										t.Errorf("corrupt value %q for key %d", v, key)
										violations.Add(1)
										return
									}
								} else {
									c.set(key, val)
								}
							case 4, 5: // private set/get
								key := private + rng%64
								c.set(key, val)
								if v, ok := c.get(key); ok && (len(v) != 2 || v[0] != 'v') {
									t.Errorf("corrupt private value %q", v)
									violations.Add(1)
									return
								}
							case 6: // private delete, then the dead entry must not come back
								key := private + rng%64
								c.del(key)
								if _, ok := c.get(key); ok {
									t.Errorf("key %d readable after Delete", key)
									violations.Add(1)
									return
								}
							case 7: // shared delete churn feeds the tombstone ring
								c.del(rng % sharedSpan)
							}
							if i%1024 == 0 {
								c.check(t, false)
								if t.Failed() {
									violations.Add(1)
									return
								}
							}
						}
					}(g)
				}
				wg.Wait()
				if violations.Load() == 0 {
					c.check(t, true)
				}
			})
		}
	}
}
