package concurrent

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// indexed is what the index tests store: a value that knows its key, so a
// lookup that came back with another key's value is caught.
type indexed struct{ key uint64 }

// TestIndexMatchesMap drives the index and a map[uint64]*indexed with the
// same random putIfAbsent/deleteIf sequence — over a key space small
// enough to collide and re-use slots constantly, large enough to force
// every shard through several growths — and compares every answer, the
// length, and at intervals the full contents via forEach.
func TestIndexMatchesMap(t *testing.T) {
	for _, keys := range []uint64{8, 300, 40_000} {
		rng := rand.New(rand.NewSource(int64(keys)))
		idx := newShardedIndex[indexed]()
		model := map[uint64]*indexed{}
		check := func(step int) {
			if idx.len() != len(model) {
				t.Fatalf("keys=%d step %d: len %d, model %d", keys, step, idx.len(), len(model))
			}
			seen := map[uint64]bool{}
			idx.forEach(func(v *indexed) bool {
				if model[v.key] != v {
					t.Fatalf("keys=%d step %d: forEach visited %d, which the model maps to %p not %p", keys, step, v.key, model[v.key], v)
				}
				if seen[v.key] {
					t.Fatalf("keys=%d step %d: forEach visited %d twice", keys, step, v.key)
				}
				seen[v.key] = true
				return true
			})
			if len(seen) != len(model) {
				t.Fatalf("keys=%d step %d: forEach visited %d of %d", keys, step, len(seen), len(model))
			}
		}
		steps := int(keys) * 40
		for i := 0; i < steps; i++ {
			// Sequential and random keys both: the former cluster in a
			// naive table, the latter do not.
			k := uint64(rng.Int63n(int64(keys)))
			if i%3 == 0 {
				k = uint64(i) % keys
			}
			switch rng.Intn(4) {
			case 0, 1:
				v := &indexed{key: k}
				old, loaded := idx.putIfAbsent(k, v)
				if want, ok := model[k]; ok != loaded || old != want {
					t.Fatalf("keys=%d step %d: putIfAbsent(%d) = %p,%v; model %p,%v", keys, i, k, old, loaded, want, ok)
				}
				if !loaded {
					model[k] = v
				}
			case 2:
				// Conditional delete with the mapped value removes it...
				if cur, ok := model[k]; ok {
					idx.deleteIf(k, cur)
					delete(model, k)
				}
			case 3:
				// ...and with any other value is a no-op.
				idx.deleteIf(k, &indexed{key: k})
			}
			got, ok := idx.get(k)
			if want, wok := model[k]; ok != wok || got != want {
				t.Fatalf("keys=%d step %d: get(%d) = %p,%v; model %p,%v", keys, i, k, got, ok, want, wok)
			}
			if i%(steps/8+1) == 0 {
				check(i)
			}
		}
		check(steps)
		// Every key, present or not, answers as the model does.
		for k := uint64(0); k < keys; k++ {
			got, ok := idx.get(k)
			if want, wok := model[k]; ok != wok || got != want {
				t.Fatalf("keys=%d final: get(%d) = %p,%v; model %p,%v", keys, k, got, ok, want, wok)
			}
		}
	}
}

// TestIndexStress runs readers against writers that insert, delete and
// force growth, and holds the index to what its callers build on:
//
//   - a key mapped for the whole run is never missed, whatever moves
//     around it;
//   - once deleteIf has returned, no lookup that starts afterwards
//     returns the deleted value;
//   - a lookup never returns a value stored under another key.
//
// Run under -race (make race does).
func TestIndexStress(t *testing.T) {
	const (
		pinned  = 512 // mapped before the readers start, never deleted
		writers = 4
		readers = 4
		rounds  = 200_000
		span    = 4096 // each writer churns its own span of keys
	)
	keys := make([]uint64, pinned+writers*span)
	for i := range keys {
		keys[i] = uint64(i) * 0x9E3779B97F4A7C15 // nothing sequential about real hashes
	}
	idx := newShardedIndex[indexed]()
	pins := make([]*indexed, pinned)
	for i := range pins {
		pins[i] = &indexed{key: keys[i]}
		idx.putIfAbsent(keys[i], pins[i])
	}
	var stop atomic.Bool
	var wg, rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				i := rng.Intn(pinned)
				if v, ok := idx.get(keys[i]); !ok || v != pins[i] {
					t.Errorf("pinned key %d: got %p,%v want %p", keys[i], v, ok, pins[i])
					return
				}
				// Any churned key: whatever comes back must be that key's.
				k := keys[pinned+rng.Intn(writers*span)]
				if v, ok := idx.get(k); ok && v.key != k {
					t.Errorf("get(%d) returned the value of key %d", k, v.key)
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			own := keys[pinned+w*span:][:span]
			mine := map[uint64]*indexed{}
			for i := 0; i < rounds; i++ {
				// The live set swells and shrinks, so tables grow while
				// deletes shift runs in them.
				k := own[rng.Intn(span)]
				if cur, ok := mine[k]; ok && rng.Intn(3) > 0 {
					idx.deleteIf(k, cur)
					delete(mine, k)
					if v, ok := idx.get(k); ok {
						t.Errorf("key %d returned %p after its delete returned", k, v)
						return
					}
					continue
				}
				v := &indexed{key: k}
				if old, loaded := idx.putIfAbsent(k, v); loaded != (mine[k] != nil) || old != mine[k] {
					t.Errorf("putIfAbsent(%d) = %p,%v; writer holds %p", k, old, loaded, mine[k])
					return
				} else if !loaded {
					mine[k] = v
				}
				if got, ok := idx.get(k); !ok || got != mine[k] {
					t.Errorf("key %d: got %p,%v right after put of %p", k, got, ok, mine[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	rwg.Wait()
}

// TestIndexChurnDoesNotAllocate: at a steady size, inserting new keys and
// deleting old ones reuses slots in place — no tombstones to clean up, so
// no rebuilt tables for the collector.
func TestIndexChurnDoesNotAllocate(t *testing.T) {
	idx := newShardedIndex[indexed]()
	const live = 10_000
	vals := make([]*indexed, 4*live)
	for k := range vals {
		vals[k] = &indexed{key: uint64(k)}
	}
	for k := 0; k < live; k++ {
		idx.putIfAbsent(uint64(k), vals[k])
	}
	next := live
	allocs := testing.AllocsPerRun(2*live, func() {
		old := next - live
		idx.deleteIf(uint64(old), vals[old])
		idx.putIfAbsent(uint64(next), vals[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("churn at a steady size allocates %.2f times per insert+delete, want 0", allocs)
	}
}
