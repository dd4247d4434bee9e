package cache

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"s3fifo/internal/concurrent"
)

// The lock-free KV is an Engine as it stands: no adapter in between.
var _ Engine = (*concurrent.KV)(nil)

// TestDefaultEngineEmptyHeap: the policy engine, the default when this
// was written, must size its ghost tables from what it learns, not from
// the byte budget read as an object count (16 shards x a 2^20-entry table
// was 767 MB for a 30 MB cache).
func TestDefaultEngineEmptyHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := mustNew(t, Config{MaxBytes: 30 << 20, Engine: "policy"})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 8<<20 {
		t.Errorf("empty 30 MB policy-engine cache holds %d MB of heap, want < 8", grew>>20)
	}
	runtime.KeepAlive(c)
}

func TestEnginesListed(t *testing.T) {
	got := map[string]bool{}
	for _, name := range Engines() {
		got[name] = true
	}
	for _, want := range []string{"policy", "concurrent"} {
		if !got[want] {
			t.Errorf("Engines() missing %q: %v", want, Engines())
		}
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(Config{MaxBytes: 1 << 16, Engine: "bogus"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := New(Config{MaxBytes: 1 << 16, Engine: "concurrent", Policy: "lru"}); err == nil {
		t.Error("concurrent engine accepted a non-s3fifo policy")
	}
	c, err := New(Config{MaxBytes: 1 << 16, Engine: "concurrent", Policy: "s3fifo"})
	if err != nil {
		t.Fatalf("concurrent + s3fifo rejected: %v", err)
	}
	if c.Engine() != "concurrent" {
		t.Errorf("Engine() = %q, want concurrent", c.Engine())
	}
	if d := mustNew(t, Config{MaxBytes: 1 << 16}); d.Engine() != "concurrent" {
		t.Errorf("default Engine() = %q, want concurrent", d.Engine())
	}
	// Naming a policy only the policy engine implements selects it.
	if d := mustNew(t, Config{MaxBytes: 1 << 16, Policy: "lru"}); d.Engine() != "policy" {
		t.Errorf("Engine() with Policy lru = %q, want policy", d.Engine())
	}
}

// TestEngineBasics runs the facade's core behaviors on every engine.
func TestEngineBasics(t *testing.T) {
	for _, eng := range Engines() {
		t.Run(eng, func(t *testing.T) {
			c := mustNew(t, Config{MaxBytes: 1 << 20, Engine: eng, Shards: 4})
			if !c.Set("a", []byte("alpha")) {
				t.Fatal("Set rejected")
			}
			if v, ok := c.Get("a"); !ok || string(v) != "alpha" {
				t.Fatalf("Get = %q, %v", v, ok)
			}
			if _, ok := c.Get("missing"); ok {
				t.Fatal("phantom hit")
			}
			if !c.Contains("a") || c.Contains("missing") {
				t.Fatal("Contains wrong")
			}
			c.Set("a", []byte("beta!")) // same size
			if v, _ := c.Get("a"); string(v) != "beta!" {
				t.Fatalf("overwrite lost: %q", v)
			}
			c.Delete("a")
			if _, ok := c.Get("a"); ok {
				t.Fatal("deleted key served")
			}
			if c.Len() != 0 {
				t.Fatalf("Len = %d", c.Len())
			}
			st := c.Stats()
			if st.Hits != 2 || st.Misses != 2 || st.Sets != 2 {
				t.Fatalf("stats = %+v", st)
			}
			if c.Capacity() == 0 || c.Used() != 0 {
				t.Fatalf("capacity %d used %d", c.Capacity(), c.Used())
			}
		})
	}
}

// TestEngineTTL runs the TTL contract on every engine: lazy expiry, the
// strict boundary (still valid at the exact expiry instant), and plain
// Set clearing the TTL.
func TestEngineTTL(t *testing.T) {
	for _, eng := range Engines() {
		t.Run(eng, func(t *testing.T) {
			clock := withFakeClock(t)
			c := mustNew(t, Config{MaxBytes: 1 << 16, Engine: eng})
			c.SetWithTTL("k", []byte("v"), time.Minute)
			*clock = clock.Add(time.Minute)
			if _, ok := c.Get("k"); !ok {
				t.Error("entry at exact TTL boundary should still serve")
			}
			*clock = clock.Add(time.Nanosecond)
			if _, ok := c.Get("k"); ok {
				t.Error("expired entry served")
			}
			if st := c.Stats(); st.Expired != 1 {
				t.Errorf("Expired = %d, want 1", st.Expired)
			}
			c.SetWithTTL("k2", []byte("v"), time.Minute)
			c.Set("k2", []byte("w")) // plain Set clears the TTL
			*clock = clock.Add(time.Hour)
			if _, ok := c.Get("k2"); !ok {
				t.Error("plain Set did not clear TTL")
			}
		})
	}
}

// TestEngineSnapshotRoundTrip saves from each engine and restores into
// the other: the snapshot format is engine-independent.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	engines := Engines()
	for i, from := range engines {
		to := engines[(i+1)%len(engines)]
		t.Run(from+"-to-"+to, func(t *testing.T) {
			src := mustNew(t, Config{MaxBytes: 1 << 20, Engine: from})
			for i := 0; i < 200; i++ {
				src.Set(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i)))
			}
			var buf bytes.Buffer
			if err := src.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			dst, err := Load(&buf, Config{MaxBytes: 1 << 20, Engine: to})
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if dst.Engine() != to {
				t.Fatalf("restored engine %q", dst.Engine())
			}
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%03d", i)
				if v, ok := dst.Get(k); !ok || string(v) != fmt.Sprintf("v%03d", i) {
					t.Fatalf("restored Get(%q) = %q, %v", k, v, ok)
				}
			}
		})
	}
}

// TestCrossEngineHitRatio is the equivalence check the Engine layer is
// accountable to: the same Zipf trace, replayed get-or-set through both
// engines at identical capacity, must produce hit ratios within one
// percentage point. The engines shard differently and the concurrent
// engine sweeps tombstones lazily, but eviction *quality* must match.
func TestCrossEngineHitRatio(t *testing.T) {
	w := concurrent.NewZipfWorkload(50000, 300000, 1.0, 8, 11)
	const entryBytes = 16 + 8 // "%016x" key + 8-byte value
	const capacity = 5000 * entryBytes
	ratios := map[string]float64{}
	for _, eng := range Engines() {
		c := mustNew(t, Config{MaxBytes: capacity, Engine: eng, Shards: 4})
		misses := 0
		for _, k := range w.Keys {
			key := fmt.Sprintf("%016x", k)
			if _, ok := c.Get(key); !ok {
				misses++
				c.Set(key, w.Value)
			}
		}
		ratios[eng] = 1 - float64(misses)/float64(len(w.Keys))
		st := c.Stats()
		if st.Hits+st.Misses != uint64(len(w.Keys)) {
			t.Errorf("%s: hits %d + misses %d != %d requests", eng, st.Hits, st.Misses, len(w.Keys))
		}
	}
	t.Logf("hit ratios: %v", ratios)
	if diff := ratios["policy"] - ratios["concurrent"]; diff < -0.01 || diff > 0.01 {
		t.Errorf("engines disagree: policy %.4f vs concurrent %.4f (diff %+.4f, tolerance ±0.01)",
			ratios["policy"], ratios["concurrent"], diff)
	}
}

// TestOnEvictReentrancy: Config.OnEvict documents that callbacks are
// delivered with no cache or engine locks held, so calling back into the
// cache from inside the callback must not deadlock on either engine.
func TestOnEvictReentrancy(t *testing.T) {
	for _, eng := range Engines() {
		t.Run(eng, func(t *testing.T) {
			var c *Cache
			var mu sync.Mutex
			calls := 0
			cfg := Config{
				MaxBytes: 4 << 10,
				Engine:   eng,
				Shards:   1,
				OnEvict: func(key string, value []byte) {
					mu.Lock()
					calls++
					n := calls
					mu.Unlock()
					// Reentrant use of every public entry point that could
					// touch the engine's locks.
					c.Get(key)
					if n <= 3 {
						c.Set("reentrant-"+key, value)
					}
					c.Delete("never-present")
					c.Len()
				},
			}
			var err error
			c, err = New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			val := make([]byte, 200)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 200; i++ {
					c.Set(fmt.Sprintf("k%03d", i), val)
				}
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("OnEvict reentrancy deadlocked")
			}
			mu.Lock()
			defer mu.Unlock()
			if calls == 0 {
				t.Fatal("flood fired no OnEvict callbacks")
			}
		})
	}
}
