package concurrent

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"s3fifo/internal/proto"
)

// TestSteadyStateHeapPerEntry is the gate on what the engine holds per
// entry it charges for, taken where the warm-up can no longer hide it:
// unique keys first, so S peaks at the whole cache while M is empty, then
// 20x the capacity of half hot, half one-hit traffic, so M fills and S
// shrinks to its 10 %. A queue that keeps the array (or the pointers) of
// its peak reads about twice the bound; `make bench-heap` runs this.
func TestSteadyStateHeapPerEntry(t *testing.T) {
	if proto.RaceEnabled {
		t.Skip("the race detector's shadow memory is not the engine's heap")
	}
	const (
		maxBytes = 12 << 20
		avgEntry = 16 + (32+256)/2 // key + mean value
		resident = maxBytes / avgEntry
		hotKeys  = resident / 2
		// Measured, the same to within a byte on every run: 298 B with the block queue
		// and 8-byte ghost slots, 581 B with the slice ring before them.
		maxHeapPerEntry = 400
	)
	rng := rand.New(rand.NewSource(1))
	value := func() []byte { return make([]byte, 32+rng.Intn(225)) }
	key := func(i int) string { return fmt.Sprintf("%016x", i) }

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	kv := NewKV(KVConfig{MaxBytes: maxBytes})
	unique := 1 << 32 // never collides with a hot key
	for i := 0; i < 2*resident; i++ {
		kv.Set(key(unique), value(), 0)
		unique++
	}
	for i := 0; i < 20*resident; i++ {
		if i%2 == 0 {
			k := key(rng.Intn(hotKeys))
			if _, ok := kv.Get(k); !ok {
				kv.Set(k, value(), 0)
			}
		} else {
			kv.Set(key(unique), value(), 0)
			unique++
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	n := kv.Len()
	perEntry := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
	t.Logf("%d resident entries, %d bytes charged, %.0f B of live heap per entry (%.2f per charged byte)",
		n, kv.Used(), perEntry, float64(after.HeapAlloc-before.HeapAlloc)/float64(kv.Used()))
	if n < resident/2 {
		t.Fatalf("only %d entries resident, expected about %d: the workload did not fill the cache", n, resident)
	}
	if perEntry > maxHeapPerEntry {
		t.Fatalf("%.0f B of live heap per resident entry, gate is %d", perEntry, maxHeapPerEntry)
	}
	runtime.KeepAlive(kv)
}
