package cache

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// lend returns key as the server hands keys to lookups — a string over
// bytes someone else will overwrite — and the function that overwrites
// them.
func lend(key string) (borrowed string, reclaim func()) {
	b := []byte(key)
	return unsafe.String(unsafe.SliceData(b), len(b)), func() {
		for i := range b {
			b[i] = '#'
		}
	}
}

// TestLookupsDoNotRetainTheirKey holds the facade to the borrowed-key
// contract (see Engine): every lookup and removal is handed a key whose
// bytes are scribbled over as soon as the call returns, and afterwards
// every key the cache still holds — in the engine, the negative table and
// the breaker's dirty set — must read as it was written. The paths that
// turn a lookup's key into a stored one are all driven: a tier hit
// promoting into DRAM (Get and GetEx), and a Delete recorded for the
// restore sweep while the tier is down.
func TestLookupsDoNotRetainTheirKey(t *testing.T) {
	for _, engine := range Engines() {
		t.Run(engine, func(t *testing.T) {
			tier := newMockTier()
			c := mustNew(t, Config{MaxBytes: 8 << 10, Shards: 1, Engine: engine,
				SecondTier: tier, FlashBreakerThreshold: 1, FlashRetryMin: time.Hour})
			defer c.Close()

			// Enough Sets that the first keys are demoted to the tier.
			val := make([]byte, 256)
			for i := 0; i < 200; i++ {
				c.Set(fmt.Sprintf("key-%03d", i), val)
			}
			lookup := func(key string, fn func(string)) {
				t.Helper()
				b, reclaim := lend(key)
				fn(b)
				reclaim()
			}
			promotions := c.Stats().Promotions
			lookup("key-000", func(k string) {
				if _, ok := c.Get(k); !ok {
					t.Fatal("key-000 not served from the tier")
				}
			})
			lookup("key-001", func(k string) {
				if _, st := c.GetEx(k, time.Second); st != LookupHit {
					t.Fatalf("GetEx(key-001) = %v, want a tier hit", st)
				}
			})
			if got := c.Stats().Promotions - promotions; got != 2 {
				t.Fatalf("%d promotions, want 2", got)
			}
			c.SetNegative("absent-1", time.Minute)
			lookup("absent-1", func(k string) { c.Get(k) })
			lookup("absent-2", func(k string) { c.Contains(k) })
			lookup("key-199", func(k string) {
				if !c.Delete(k) {
					t.Fatal("Delete(key-199) reported nothing held")
				}
			})

			// Tier down: a Delete's key goes into the dirty set.
			tier.fail()
			fillUntil(t, c, "down", "tier degraded", c.FlashDegraded)
			lookup("key-002", func(k string) { c.Delete(k) })

			intact := func(where, key string) {
				t.Helper()
				if strings.Contains(key, "#") {
					t.Errorf("%s holds a key a caller overwrote: %q", where, key)
				}
			}
			resident := map[string]bool{}
			c.engine.Range(func(key string, _ []byte, _ int64) bool {
				intact("engine", key)
				resident[key] = true
				return true
			})
			if !resident["key-000"] && !resident["key-001"] {
				t.Error("neither promoted key is resident under its own name")
			}
			for i := range c.neg.shards {
				s := &c.neg.shards[i]
				for key := range s.m {
					intact("negative table", key)
				}
				for _, key := range s.ring {
					intact("negative ring", key)
				}
			}
			br := c.tier.br
			br.mu.Lock()
			if _, ok := br.dirty["key-002"]; !ok {
				t.Errorf("dirty set lacks key-002: %v", br.dirty)
			}
			for key := range br.dirty {
				intact("dirty set", key)
			}
			br.mu.Unlock()
		})
	}
}
