// The second tier's circuit breaker: graceful degradation when the
// backend under the tier misbehaves. A cache must never let a sick
// device (or peer) take down serving — the second tier is an
// optimization, DRAM is the product — so after a run of consecutive
// tier I/O errors the cache trips into degraded, DRAM-only mode:
// demotions are dropped (counted, not retried), tier reads are
// bypassed, and a background prober retries the backend with
// exponential backoff until it answers again. The state machine (count,
// trip, probe, restore) is internal/breaker's, the same one the cluster
// router's nodes use; this file is the layer over it that keeps the tier
// consistent across an outage, generic over the Tier interface
// (tier.go): it guards the flash store and a remote peer alike.
//
// Consistency across the outage is the subtle part. While degraded, a
// Set or Delete cannot tombstone the key's tier copy (that would hammer
// the dead backend), so the superseded copy stays in the tier and
// would serve a stale value after recovery. The breaker therefore
// remembers every key written or deleted while degraded in a bounded
// dirty set and tombstones them all before closing the circuit; if the
// outage outlives the bound, it wipes the tier instead (Tier.Reset) —
// the tier holds only cached copies, so wiping trades hit ratio for
// guaranteed consistency. Tier reads stay bypassed until this cleanup
// completes, so a stale copy is never observable. (A crash in the
// middle of a degraded window can still resurrect a superseded tier
// record on restart, because the tombstones could not be written;
// DESIGN.md §10 spells out this bounded durability gap.)
package cache

import (
	"strings"
	"sync"

	"s3fifo/internal/breaker"
)

// maxDirtyKeys bounds the superseded-while-degraded set; beyond it the
// restore path wipes the store instead of tombstoning key by key.
const maxDirtyKeys = 1 << 16

// tierBreaker is the second tier's circuit breaker: internal/breaker's
// circuit, with Tier.Sync and the restore sweep as its probe. All entry
// points are safe for concurrent use.
type tierBreaker struct {
	breaker.Breaker
	tier Tier

	// mu guards the dirty set. The circuit closes only under mu, with the
	// set drained (restore), so a key can never fall between "too late to
	// tombstone now" and "missed by the restore sweep".
	mu            sync.Mutex
	dirty         map[string]struct{} // keys superseded while degraded
	dirtyOverflow bool                // dirty set overflowed: wipe on restore
	closed        bool
}

// newTierBreaker builds the breaker for tier from the facade config.
// threshold semantics: 0 = default, negative = disabled (errors are
// still counted for telemetry, but the cache never degrades).
func newTierBreaker(tier Tier, cfg Config) *tierBreaker {
	threshold := cfg.FlashBreakerThreshold
	if threshold == 0 {
		threshold = breaker.DefaultThreshold
	}
	b := &tierBreaker{tier: tier}
	b.Breaker = breaker.New(threshold, cfg.FlashRetryMin, cfg.FlashRetryMax, b.probe)
	return b
}

// markDirtyIfDegraded is the Set/Delete supersession gate. While the
// circuit is open it records key as superseded (to be tombstoned before
// restore) and returns true — the caller must skip its tier I/O. While
// closed it returns false.
func (b *tierBreaker) markDirtyIfDegraded(key string) bool {
	if b.Available() {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.Available() {
		return false // restored while we took the lock: caller proceeds
	}
	if b.dirtyOverflow {
		return true
	}
	if len(b.dirty) >= maxDirtyKeys {
		b.dirtyOverflow = true
		b.dirty = nil
		return true
	}
	if b.dirty == nil {
		b.dirty = make(map[string]struct{})
	}
	if _, ok := b.dirty[key]; !ok {
		b.dirty[strings.Clone(key)] = struct{}{} // a Delete's key is the caller's to reuse
	}
	return true
}

// probe is the prober's health check, then the restore sweep. Tier.Sync
// (the flash store syncs its active segment, the remote tier pings its
// peer) exercises real backend I/O; a backend that fails only on writes
// will pass it and re-trip on the next demotion, which the backoff reset
// makes a slow, bounded flap.
func (b *tierBreaker) probe() error {
	if err := b.tier.Sync(); err != nil {
		return err
	}
	return b.restore()
}

// restore drains the dirty set (or wipes the tier after overflow) and
// closes the circuit. A backend error interrupts the sweep: the remaining
// dirty keys stay for the next probe.
func (b *tierBreaker) restore() error {
	for {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return nil
		}
		if b.dirtyOverflow {
			b.mu.Unlock()
			if err := b.tier.Reset(); err != nil {
				return err
			}
			b.mu.Lock()
			// Everything in the tier is gone, so every superseded copy is
			// gone with it; keys dirtied while Reset ran are clean too.
			b.dirtyOverflow = false
			b.dirty = nil
			b.mu.Unlock()
			continue
		}
		if len(b.dirty) == 0 {
			b.Restore()
			b.mu.Unlock()
			return nil
		}
		keys := make([]string, 0, len(b.dirty))
		for k := range b.dirty {
			keys = append(keys, k)
		}
		b.mu.Unlock()
		for _, k := range keys {
			if _, err := b.tier.Delete(k); err != nil {
				return err // k stays dirty
			}
			b.mu.Lock()
			delete(b.dirty, k)
			b.mu.Unlock()
		}
	}
}

// close ends a restore sweep in progress and stops the prober. Called by
// Cache.Close before the tier is closed, so the prober can never touch a
// closed backend.
func (b *tierBreaker) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.Close()
}
