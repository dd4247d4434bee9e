package concurrent

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"s3fifo/internal/proto"
)

// TestSteadyStateHeapPerEntry is the gate on what the engine holds per
// byte it charges for, taken where the warm-up can no longer hide it:
// unique keys first, so S peaks at the whole cache while M is empty, then
// 20x the capacity of mixed traffic, so M fills and S shrinks to its
// 10 %. Of every four operations two set a one-hit key, one is a
// look-aside get of a hot key, and one overwrites a resident hot key with
// a fresh value of the same length, as a served SET does. A queue that
// keeps the array (or the pointers) of its peak, or an entry that keeps
// the first value it was given, reads above the bound; `make bench-heap`
// runs this.
func TestSteadyStateHeapPerEntry(t *testing.T) {
	if proto.RaceEnabled {
		t.Skip("the race detector's shadow memory is not the engine's heap")
	}
	const (
		maxBytes = 12 << 20
		avgEntry = 16 + (32+256)/2 // key + mean value
		resident = maxBytes / avgEntry
		hotKeys  = resident / 2
		// Live heap per charged byte, the same to two decimals on every
		// run: 1.72 (275 B per entry) with one value per entry, 2.25
		// (361 B) when an overwritten entry kept its first value.
		maxHeapPerCharged = 1.9
	)
	rng := rand.New(rand.NewSource(1))
	key := func(i int) string { return fmt.Sprintf("%016x", i) }
	// A hot key's value length is fixed, so overwriting it is in place.
	hotValue := func(k int) []byte { return make([]byte, 32+k*7919%225) }

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	kv := NewKV(KVConfig{MaxBytes: maxBytes})
	unique := 1 << 32 // never collides with a hot key
	oneHit := func() {
		kv.Set(key(unique), make([]byte, 32+rng.Intn(225)), 0)
		unique++
	}
	for i := 0; i < 2*resident; i++ {
		oneHit()
	}
	for i := 0; i < 20*resident; i++ {
		switch k := rng.Intn(hotKeys); i % 4 {
		case 1:
			if _, ok := kv.Get(key(k)); !ok {
				kv.Set(key(k), hotValue(k), 0)
			}
		case 3:
			if kv.Contains(key(k)) {
				kv.Set(key(k), hotValue(k), 0)
			}
		default:
			oneHit()
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	n, held := kv.Len(), float64(after.HeapAlloc-before.HeapAlloc)
	perCharged := held / float64(kv.Used())
	t.Logf("%d resident entries, %d bytes charged, %.0f B of live heap per entry (%.2f per charged byte)",
		n, kv.Used(), held/float64(n), perCharged)
	if n < resident/2 {
		t.Fatalf("only %d entries resident, expected about %d: the workload did not fill the cache", n, resident)
	}
	if perCharged > maxHeapPerCharged {
		t.Fatalf("%.2f B of live heap per charged byte, gate is %.2f", perCharged, maxHeapPerCharged)
	}
	runtime.KeepAlive(kv)
}
