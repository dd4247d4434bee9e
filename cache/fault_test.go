// Breaker tests: drive the second tier through injected I/O faults and
// check that the facade degrades to DRAM-only serving instead of
// surfacing errors, then restores cleanly when the faults lift. Every
// test runs against each Tier implementation that can fail on demand —
// the flash store over a faultfs.Injector, and the in-memory mock tier —
// because the breaker is generic over the Tier
// interface and must behave identically above all of them.
package cache

import (
	"fmt"
	"testing"
	"time"

	"s3fifo/internal/faultfs"
)

// faultTier is one breaker-test fixture: a way to configure cfg with a
// tier whose I/O can be broken and healed mid-test.
type faultTier struct {
	name  string
	setup func(t *testing.T, cfg *Config) (breakIO, healIO func())
}

func faultTiers() []faultTier {
	return []faultTier{
		{name: "flash", setup: func(t *testing.T, cfg *Config) (func(), func()) {
			inj := faultfs.New(faultfs.OS(), 1)
			cfg.FlashDir = t.TempDir()
			cfg.FlashBytes = 1 << 20
			cfg.FlashSegmentBytes = 16 << 10
			cfg.FlashFS = inj
			breakIO := func() {
				inj.FailAfter(faultfs.OpWrite, 0)
				inj.FailAfter(faultfs.OpSync, 0)
			}
			return breakIO, inj.Clear
		}},
		{name: "mock", setup: func(t *testing.T, cfg *Config) (func(), func()) {
			mt := newMockTier()
			cfg.SecondTier = mt
			return mt.fail, mt.heal
		}},
	}
}

// forEachFaultTier runs fn as a subtest per fixture.
func forEachFaultTier(t *testing.T, fn func(t *testing.T, ft faultTier)) {
	for _, ft := range faultTiers() {
		ft := ft
		t.Run("tier="+ft.name, func(t *testing.T) { fn(t, ft) })
	}
}

// newFaultedCache builds a small single-shard cache over the fixture's
// tier: 4 KiB of DRAM and 512-byte values, so a handful of Sets forces
// demotions through the second tier.
func newFaultedCache(t *testing.T, ft faultTier, cfg Config) (*Cache, func(), func()) {
	t.Helper()
	cfg.MaxBytes = 4 << 10
	cfg.Shards = 1
	breakIO, healIO := ft.setup(t, &cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, breakIO, healIO
}

// fill drives n Sets of 512-byte values through the cache; with 4 KiB of
// DRAM anything past the first few evicts and therefore demotes.
func fill(t *testing.T, c *Cache, prefix string, n int) {
	t.Helper()
	val := make([]byte, 512)
	for i := 0; i < n; i++ {
		if !c.Set(fmt.Sprintf("%s-%d", prefix, i), val) {
			t.Fatalf("Set(%s-%d) rejected", prefix, i)
		}
	}
}

// fillUntil is fill that stops as soon as cond holds, and fails the test
// if 4096 Sets (2 MiB) do not get there. The flash tier stages demotions
// in memory, so a dead disk shows only once a staging buffer's worth of
// them has been handed to it; the other tiers get there in a few Sets.
// It returns the last key set, which is DRAM-resident.
func fillUntil(t *testing.T, c *Cache, prefix, what string, cond func() bool) string {
	t.Helper()
	val := make([]byte, 512)
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("%s-%d", prefix, i)
		if !c.Set(key, val) {
			t.Fatalf("Set(%s) rejected", key)
		}
		if cond() {
			return key
		}
	}
	t.Fatalf("%s: not after 4096 Sets: %+v", what, c.Stats())
	return ""
}

// waitFor polls cond for up to 5s; the breaker's restore runs on a
// background goroutine, so tests observe it asynchronously.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestBreakerTripsToDRAMOnly(t *testing.T) {
	forEachFaultTier(t, func(t *testing.T, ft faultTier) {
		c, breakIO, _ := newFaultedCache(t, ft, Config{
			FlashBreakerThreshold: 3,
			FlashRetryMin:         time.Hour, // no restore during this test
		})
		fill(t, c, "warm", 32)
		if st := c.Stats(); st.Demotions == 0 {
			t.Fatalf("no demotions after warmup: %+v", st)
		}

		// Kill the backend: every write and sync fails from here on.
		breakIO()
		// Never surfaces an error to the caller.
		last := fillUntil(t, c, "sick", "breaker trip", c.FlashDegraded)
		st := c.Stats()
		if st.FlashBreakerTrips != 1 {
			t.Fatalf("FlashBreakerTrips = %d, want 1: %+v", st.FlashBreakerTrips, st)
		}
		if st.FlashErrors < 3 {
			t.Fatalf("FlashErrors = %d, want >= threshold", st.FlashErrors)
		}

		// Degraded serving: DRAM hits keep working, tier reads are
		// bypassed, further demotions are dropped and counted.
		if _, ok := c.Get(last); !ok {
			t.Fatal("DRAM-resident key unreadable while degraded")
		}
		if _, ok := c.Get("warm-0"); ok {
			t.Fatal("tier read served while degraded")
		}
		dropped := c.Stats().DemotionsDegraded
		fill(t, c, "more", 8)
		if got := c.Stats().DemotionsDegraded; got <= dropped {
			t.Fatalf("DemotionsDegraded stuck at %d while degraded", got)
		}
		// The trip is latched: more errors don't re-trip.
		if got := c.Stats().FlashBreakerTrips; got != 1 {
			t.Fatalf("FlashBreakerTrips = %d, want 1", got)
		}
	})
}

func TestBreakerRestoresAndResumesDemotion(t *testing.T) {
	forEachFaultTier(t, func(t *testing.T, ft faultTier) {
		c, breakIO, healIO := newFaultedCache(t, ft, Config{
			FlashBreakerThreshold: 3,
			FlashRetryMin:         time.Millisecond,
			FlashRetryMax:         5 * time.Millisecond,
		})
		fill(t, c, "warm", 32)

		breakIO()
		fillUntil(t, c, "sick", "breaker trip", c.FlashDegraded)

		healIO()
		waitFor(t, "breaker restore", func() bool { return !c.FlashDegraded() })
		st := c.Stats()
		if st.FlashBreakerRestores != 1 {
			t.Fatalf("FlashBreakerRestores = %d, want 1", st.FlashBreakerRestores)
		}

		// Demotions flow to the tier again.
		before := st.Demotions
		fill(t, c, "healed", 32)
		waitFor(t, "demotions to resume", func() bool { return c.Stats().Demotions > before })
	})
}

// TestNoStaleServeAcrossOutage is the consistency half of the breaker: a
// key superseded while the circuit was open must not be served from its
// stale tier copy after restore.
func TestNoStaleServeAcrossOutage(t *testing.T) {
	forEachFaultTier(t, func(t *testing.T, ft faultTier) {
		c, breakIO, healIO := newFaultedCache(t, ft, Config{
			FlashBreakerThreshold: 3,
			FlashRetryMin:         time.Millisecond,
			FlashRetryMax:         5 * time.Millisecond,
		})
		c.Set("victim", []byte("stale"))
		fill(t, c, "warm", 32) // push victim out of DRAM and onto the tier
		if c.engine.Contains("victim") {
			t.Skip("victim still DRAM-resident; eviction order changed")
		}
		if !c.tier.t.Contains("victim") {
			t.Fatalf("victim not demoted to the tier")
		}

		breakIO()
		fillUntil(t, c, "sick", "breaker trip", c.FlashDegraded)

		// Supersede the tier copy while the backend is down, then evict
		// the new value from DRAM too (the demotion is dropped — tier
		// degraded).
		c.Delete("victim")
		if _, ok := c.Get("victim"); ok {
			t.Fatal("deleted key served while degraded")
		}

		healIO()
		waitFor(t, "breaker restore", func() bool { return !c.FlashDegraded() })
		if v, ok := c.Get("victim"); ok {
			t.Fatalf("stale tier copy %q served after restore", v)
		}
		if c.tier.t.Contains("victim") {
			t.Fatal("restore sweep left the superseded tier copy indexed")
		}
	})
}

// TestReadErrorsTripBreaker: the breaker hears of failed tier reads, not
// only failed writes. With the disk under the flash tier failing every
// read, FlashBreakerThreshold Gets of demoted keys open the circuit — and
// each of them is an ordinary miss to the caller.
func TestReadErrorsTripBreaker(t *testing.T) {
	inj := faultfs.New(faultfs.OS(), 1)
	c, err := New(Config{
		MaxBytes: 4 << 10, Shards: 1,
		FlashDir: t.TempDir(), FlashBytes: 1 << 20, FlashSegmentBytes: 16 << 10, FlashFS: inj,
		FlashBreakerThreshold: 3,
		FlashRetryMin:         time.Hour, // no restore during this test
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	fill(t, c, "warm", 64)
	if err := c.tier.t.Sync(); err != nil { // out of the staging area: a Get must read the disk
		t.Fatal(err)
	}
	var demoted []string
	for i := 0; i < 64; i++ {
		if key := fmt.Sprintf("warm-%d", i); !c.engine.Contains(key) && c.tier.t.Contains(key) {
			demoted = append(demoted, key)
		}
	}
	if len(demoted) < 3 {
		t.Fatalf("only %d keys on the tier after warmup", len(demoted))
	}

	inj.FailAfter(faultfs.OpRead, 0)
	for i, key := range demoted[:3] {
		if c.FlashDegraded() {
			t.Fatalf("breaker open after %d read errors, threshold is 3", i)
		}
		if v, ok := c.Get(key); ok {
			t.Fatalf("Get(%s) = %d bytes through a dead disk", key, len(v))
		}
	}
	st := c.Stats()
	if !st.FlashDegraded || st.FlashBreakerTrips != 1 || st.FlashErrors != 3 {
		t.Fatalf("three read errors did not open the breaker: %+v", st)
	}
	// Degraded: DRAM serves, the tier is bypassed.
	c.Set("fresh", []byte("v"))
	if _, ok := c.Get("fresh"); !ok {
		t.Fatal("DRAM-resident key unreadable while degraded")
	}
}

func TestBreakerDisabled(t *testing.T) {
	forEachFaultTier(t, func(t *testing.T, ft faultTier) {
		c, breakIO, healIO := newFaultedCache(t, ft, Config{FlashBreakerThreshold: -1})
		fill(t, c, "warm", 32)
		breakIO()
		// Still no client-visible errors, and the errors are counted.
		fillUntil(t, c, "sick", "a counted tier error", func() bool { return c.Stats().FlashErrors > 0 })
		fill(t, c, "sicker", 64)
		st := c.Stats()
		if st.FlashDegraded || st.FlashBreakerTrips != 0 {
			t.Fatalf("disabled breaker tripped: %+v", st)
		}
		// A healthy write resets the consecutive count; serving continues.
		healIO()
		fill(t, c, "healed", 8)
		if c.FlashDegraded() {
			t.Fatal("degraded after faults lifted with breaker disabled")
		}
	})
}

// TestCloseWhileDegraded checks shutdown ordering: Close must stop the
// background prober before closing the tier it probes, even while the
// backend is still failing.
func TestCloseWhileDegraded(t *testing.T) {
	forEachFaultTier(t, func(t *testing.T, ft faultTier) {
		cfg := Config{
			MaxBytes:              4 << 10,
			Shards:                1,
			FlashBreakerThreshold: 3,
			FlashRetryMin:         time.Millisecond,
			FlashRetryMax:         2 * time.Millisecond,
		}
		breakIO, _ := ft.setup(t, &cfg)
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		fill(t, c, "warm", 32)
		breakIO()
		fillUntil(t, c, "sick", "breaker trip", c.FlashDegraded)
		done := make(chan error, 1)
		go func() { done <- c.Close() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Close hung waiting for the prober")
		}
	})
}
