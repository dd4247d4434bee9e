package concurrent

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"s3fifo/internal/workload"
)

func TestKVGetSetDelete(t *testing.T) {
	kv := NewKV(KVConfig{MaxBytes: 1 << 20, Shards: 4})
	if kv.Name() != "concurrent" {
		t.Fatalf("Name() = %q", kv.Name())
	}
	if _, ok := kv.Get("missing"); ok {
		t.Fatal("Get on empty KV reported a hit")
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		if !kv.Set(k, []byte(k+"-value"), 0) {
			t.Fatalf("Set(%q) rejected", k)
		}
	}
	if kv.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", kv.Len())
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		v, ok := kv.Get(k)
		if !ok || string(v) != k+"-value" {
			t.Fatalf("Get(%q) = %q, %v", k, v, ok)
		}
		if !kv.Contains(k) {
			t.Fatalf("Contains(%q) = false", k)
		}
	}

	// Overwrite replaces the value (same size and changed size).
	if !kv.Set("k000", []byte("k000-VALUE"), 0) {
		t.Fatal("same-size overwrite rejected")
	}
	if v, _ := kv.Get("k000"); string(v) != "k000-VALUE" {
		t.Fatalf("after overwrite Get = %q", v)
	}
	if !kv.Set("k000", []byte("tiny"), 0) {
		t.Fatal("resize overwrite rejected")
	}
	if v, _ := kv.Get("k000"); string(v) != "tiny" {
		t.Fatalf("after resize Get = %q", v)
	}
	if kv.Len() != 100 {
		t.Fatalf("Len() after overwrites = %d, want 100", kv.Len())
	}

	if !kv.Delete("k001") {
		t.Fatal("Delete of resident key reported false")
	}
	if kv.Delete("k001") {
		t.Fatal("second Delete reported true")
	}
	if _, ok := kv.Get("k001"); ok {
		t.Fatal("Get after Delete reported a hit")
	}
	if kv.Len() != 99 {
		t.Fatalf("Len() after Delete = %d, want 99", kv.Len())
	}
}

func TestKVByteAccounting(t *testing.T) {
	const capacity = 10_000
	kv := NewKV(KVConfig{MaxBytes: capacity, Shards: 1})
	val := make([]byte, 96)
	for i := 0; i < 500; i++ {
		kv.Set(fmt.Sprintf("k%03d", i), val, 0) // 100 bytes charged
	}
	if used := kv.Used(); used > capacity {
		t.Fatalf("Used() = %d exceeds capacity %d", used, capacity)
	}
	if kv.Len() > capacity/100 {
		t.Fatalf("Len() = %d, want <= %d", kv.Len(), capacity/100)
	}
	if c := kv.Counters(); c.SmallQueueEvict+c.MainQueueEvict == 0 {
		t.Fatal("flood beyond capacity recorded no evictions")
	}
	if kv.Capacity() != capacity {
		t.Fatalf("Capacity() = %d, want %d", kv.Capacity(), capacity)
	}
}

func TestKVOversizedRejected(t *testing.T) {
	kv := NewKV(KVConfig{MaxBytes: 1024, Shards: 1})
	if !kv.Set("key", []byte("small"), 0) {
		t.Fatal("small Set rejected")
	}
	if kv.Set("key", make([]byte, 10_000), 0) {
		t.Fatal("oversized Set accepted")
	}
	// The stale small copy must not survive a rejected overwrite.
	if _, ok := kv.Get("key"); ok {
		t.Fatal("rejected overwrite left the old value readable")
	}
	if kv.Add("big", make([]byte, 10_000), 0) {
		t.Fatal("oversized Add accepted")
	}
}

func TestKVTTL(t *testing.T) {
	var clock atomic.Int64
	clock.Store(1)
	kv := NewKV(KVConfig{MaxBytes: 1 << 20, Shards: 1, Now: func() int64 { return clock.Load() }})
	kv.Set("k", []byte("v"), 100)
	if _, ok := kv.Get("k"); !ok {
		t.Fatal("unexpired entry missing")
	}
	clock.Store(100)
	if _, ok := kv.Get("k"); !ok {
		t.Fatal("entry at exact expiry instant must still serve")
	}
	clock.Store(101)
	if _, ok := kv.Get("k"); ok {
		t.Fatal("expired entry served")
	}
	if got := kv.Counters().TTLExpire; got != 1 {
		t.Fatalf("TTLExpire = %d, want 1", got)
	}
	if kv.Len() != 0 {
		t.Fatalf("Len() after expiry = %d, want 0", kv.Len())
	}

	// A plain Set (expiresAt 0) clears the TTL of a live entry.
	kv.Set("k2", []byte("v2"), 200)
	kv.Set("k2", []byte("v2"), 0)
	clock.Store(10_000)
	if _, ok := kv.Get("k2"); !ok {
		t.Fatal("plain re-Set did not clear TTL")
	}
}

func TestKVAdd(t *testing.T) {
	kv := NewKV(KVConfig{MaxBytes: 1 << 20, Shards: 1})
	if !kv.Add("k", []byte("first"), 0) {
		t.Fatal("Add to empty KV rejected")
	}
	if kv.Add("k", []byte("second"), 0) {
		t.Fatal("Add over a resident key accepted")
	}
	if v, _ := kv.Get("k"); string(v) != "first" {
		t.Fatalf("Add clobbered resident value: %q", v)
	}
	kv.Delete("k")
	if !kv.Add("k", []byte("third"), 0) {
		t.Fatal("Add after Delete rejected")
	}
}

func TestKVEvictionHook(t *testing.T) {
	var mu sync.Mutex
	evicted := map[string]string{}
	kv := NewKV(KVConfig{
		MaxBytes: 1000,
		Shards:   1,
		OnEvict: func(ev Eviction) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Size != uint32(len(ev.Key)+len(ev.Value)) {
				t.Errorf("hook size %d != %d", ev.Size, len(ev.Key)+len(ev.Value))
			}
			evicted[ev.Key] = string(ev.Value)
		},
	})
	val := make([]byte, 96)
	kv.Set("keep", val, 0)
	kv.Get("keep") // freq>0: survives small-queue eviction longer
	kv.Delete("keep")
	mu.Lock()
	if len(evicted) != 0 {
		t.Fatalf("Delete fired the eviction hook: %v", evicted)
	}
	mu.Unlock()
	for i := 0; i < 50; i++ {
		kv.Set(fmt.Sprintf("k%03d", i), val, 0)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(evicted) == 0 {
		t.Fatal("flood beyond capacity fired no eviction hooks")
	}
	if _, ok := evicted["keep"]; ok {
		t.Fatal("deleted key was reported as evicted")
	}
	for k, v := range evicted {
		if k == "" || len(v) != len(val) {
			t.Fatalf("hook saw inconsistent pair %q -> %d bytes", k, len(v))
		}
	}
}

// TestOverwriteKeepsFrequency: an in-place overwrite (same key, same
// charge, no eviction hook) keeps the entry's frequency, as the policy
// engine does, so a rewritten hot key stays hot. With a hook the overwrite
// takes the locked path and re-enters as a new entry at frequency 0: that
// deviation is deliberate (DESIGN §8) and pinned here too.
func TestOverwriteKeepsFrequency(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		cfg := KVConfig{MaxBytes: 1 << 10, Shards: 1}
		if hooked {
			cfg.OnEvict = func(Eviction) {}
		}
		kv := NewKV(cfg)
		kv.Set("k", []byte("a"), 0)
		for i := 0; i < 5; i++ {
			kv.Get("k")
		}
		before, _ := kv.index.get(hashKV("k"))
		if f := before.freq.Load(); f != ccMaxFreq {
			t.Fatalf("hooked=%v: setup: freq %d after 5 hits, want %d", hooked, f, ccMaxFreq)
		}
		kv.Set("k", []byte("b"), 0)
		after, _ := kv.index.get(hashKV("k"))
		want, inPlace := int32(ccMaxFreq), true
		if hooked {
			want, inPlace = 0, false
		}
		if got := after.freq.Load(); got != want || (after == before) != inPlace {
			t.Errorf("hooked=%v: overwrite left freq %d (in place %v), want %d (in place %v)",
				hooked, got, after == before, want, inPlace)
		}
		if v, _ := kv.Get("k"); string(v) != "b" {
			t.Errorf("hooked=%v: value after overwrite = %q", hooked, v)
		}
	}
}

func TestKVRange(t *testing.T) {
	kv := NewKV(KVConfig{MaxBytes: 1 << 20, Shards: 2})
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%03d", i)
		want[k] = k + "-v"
		kv.Set(k, []byte(k+"-v"), 0)
	}
	got := map[string]string{}
	kv.Range(func(key string, value []byte, expiresAt int64) bool {
		got[key] = string(value)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%q] = %q, want %q", k, got[k], v)
		}
	}
	// Early stop.
	n := 0
	kv.Range(func(string, []byte, int64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range ignored early stop: visited %d", n)
	}
}

// TestKVConcurrent hammers the KV from 8 goroutines, with and without an
// eviction hook (the hook toggles the locked overwrite/delete paths).
// Run with -race.
func TestKVConcurrent(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		name := "lockfree-overwrites"
		var hook func(Eviction)
		var hookCalls atomic.Uint64
		if hooked {
			name = "locked-overwrites"
			hook = func(ev Eviction) {
				if ev.Key == "" {
					t.Error("hook saw empty key")
				}
				hookCalls.Add(1)
			}
		}
		t.Run(name, func(t *testing.T) {
			kv := NewKV(KVConfig{MaxBytes: 64 << 10, Shards: 4, OnEvict: hook})
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					val := make([]byte, 120)
					for i := 0; i < 5000; i++ {
						k := fmt.Sprintf("key-%d", (seed*31+i*7)%800)
						switch i % 5 {
						case 0, 1, 2:
							if v, ok := kv.Get(k); ok && len(v) != 120 {
								t.Errorf("Get(%q) returned %d bytes", k, len(v))
							}
						case 3:
							kv.Set(k, val, 0)
						case 4:
							kv.Delete(k)
						}
					}
				}(g)
			}
			wg.Wait()
			if used, c := kv.Used(), kv.Capacity(); used > c {
				t.Fatalf("Used() = %d exceeds Capacity() = %d", used, c)
			}
		})
	}
}

// kvGolden is the outcome of goldenKVReplay: every number an eviction
// decision can move.
type kvGolden struct {
	misses, evictSmall, evictMain, ghostReinserts, length, used uint64
}

// goldenKVReplay drives a fixed seeded stream through a KV on a logical
// clock: Zipf(1.0) look-aside gets with set-on-miss (80 %), deletes
// (10 %), and TTL sets of a fresh random size (10 %); entries charge
// 16..80 bytes, so byte accounting, in-place and resizing overwrites,
// lazy expiry, tombstone sweeps and ghost resizing all take part.
func goldenKVReplay(shards int) kvGolden {
	var clock int64
	kv := NewKV(KVConfig{MaxBytes: 100_000, Shards: shards, Now: func() int64 { return clock }})
	rng := rand.New(rand.NewSource(20230923))
	z := workload.NewZipf(rng, 1.0, 20_000)
	payload := make([]byte, 72)
	var g kvGolden
	for i := 0; i < 400_000; i++ {
		clock++
		k := z.Sample()
		key := fmt.Sprintf("k%07d", k)
		switch rng.Intn(10) {
		case 0:
			kv.Delete(key)
		case 1:
			kv.Set(key, payload[:8+rng.Intn(65)], clock+1+rng.Int63n(20_000))
		default:
			if _, ok := kv.Get(key); !ok {
				g.misses++
				kv.Set(key, payload[:8+k%65], 0)
			}
		}
	}
	g.evictSmall, g.evictMain, g.ghostReinserts = kv.EvictionsSmall(), kv.EvictionsMain(), kv.GhostReinserts()
	g.length, g.used = uint64(kv.Len()), kv.Used()
	return g
}

// TestKVGolden pins the served engine's eviction decisions exactly; a
// single-threaded replay is deterministic, so any difference means an
// eviction decision moved. First recorded at commit 50cba39, when KV still
// had its own copy of the shard machine:
//
//	shards=1: {115913 95852 4493 21959 2058 99503}
//	shards=8: {115645 94598 5431 23047 1987 96252}
//
// Re-recorded for two deliberate deviations from those decisions. An
// in-place overwrite keeps the entry's frequency instead of resetting it
// to 0 (alone, shards=1: {115856 95675 4651 22169 2013 97350}), and
// eviction runs down to 1/64 of a shard below capacity instead of 1/16
// (alone, shards=1: {115597 95216 4780 23176 2038 98603}). Those two
// together read
//
//	shards=1: {115679 95555 4517 22894 2042 98646}
//	shards=8: {115352 94231 5416 23751 2045 99109}
//
// Re-recorded once more when S's budget and G's size came to count live
// entries only, as Algorithm 1 does (its Delete unlinks): a tombstone not
// yet swept no longer moves a decision, so neither does the sweep's
// timing (TestSweepTimingMovesNoDecision).
func TestKVGolden(t *testing.T) {
	want := map[int]kvGolden{
		1: {misses: 115607, evictSmall: 95658, evictMain: 4318, ghostReinserts: 22420, length: 2057, used: 99471},
		8: {misses: 115431, evictSmall: 95066, evictMain: 4625, ghostReinserts: 22204, length: 2048, used: 99092},
	}
	for shards, w := range want {
		if got := goldenKVReplay(shards); got != w {
			t.Errorf("shards=%d:\n got  %+v\n want %+v", shards, got, w)
		}
	}
}
