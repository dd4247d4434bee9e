// The second-tier circuit breaker: graceful degradation when the
// backend under the tier misbehaves. A cache must never let a sick
// device (or peer) take down serving — the second tier is an
// optimization, DRAM is the product — so after a run of consecutive
// tier I/O errors the cache trips into degraded, DRAM-only mode:
// demotions are dropped (counted, not retried), tier reads are
// bypassed, and a background prober retries the backend with
// exponential backoff until it answers again. The breaker is generic
// over the Tier interface (tier.go): the same machinery guards the
// flash store and a remote peer alike.
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
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// defaultBreakerThreshold is the consecutive-error count that trips
	// the breaker when Config.FlashBreakerThreshold is zero.
	defaultBreakerThreshold = 3
	// defaultRetryMin/Max bound the background probe backoff.
	defaultRetryMin = 100 * time.Millisecond
	defaultRetryMax = 30 * time.Second
	// maxDirtyKeys bounds the superseded-while-degraded set; beyond it
	// the restore path wipes the store instead of tombstoning key by key.
	maxDirtyKeys = 1 << 16
)

// breaker is the second tier's circuit breaker. All entry points are
// safe for concurrent use; the hot-path cost while the circuit is closed
// is one atomic load (available) or store (note success).
type breaker struct {
	tier      Tier
	enabled   bool          // false: errors are counted but never trip
	threshold uint64        // consecutive errors that trip the circuit
	retryMin  time.Duration // first probe delay after a trip
	retryMax  time.Duration // backoff cap

	degraded    atomic.Bool
	consecutive atomic.Uint64
	errors      atomic.Uint64 // every tier I/O error observed, incl. probes
	trips       atomic.Uint64
	restores    atomic.Uint64

	mu            sync.Mutex
	dirty         map[string]struct{} // keys superseded while degraded
	dirtyOverflow bool                // dirty set overflowed: wipe on restore
	closed        bool
	stop          chan struct{}
	wg            sync.WaitGroup
}

// newBreaker builds the breaker for tier from the facade config.
// threshold semantics: 0 = default, negative = disabled (errors are
// still counted for telemetry, but the cache never degrades).
func newBreaker(tier Tier, threshold int, retryMin, retryMax time.Duration) *breaker {
	b := &breaker{
		tier:     tier,
		enabled:  threshold >= 0,
		retryMin: retryMin,
		retryMax: retryMax,
		stop:     make(chan struct{}),
	}
	if threshold == 0 {
		threshold = defaultBreakerThreshold
	}
	if threshold > 0 {
		b.threshold = uint64(threshold)
	}
	if b.retryMin <= 0 {
		b.retryMin = defaultRetryMin
	}
	if b.retryMax <= 0 {
		b.retryMax = defaultRetryMax
	}
	if b.retryMax < b.retryMin {
		b.retryMax = b.retryMin
	}
	return b
}

// available reports whether the second tier should be used: one atomic
// load on every tier-adjacent operation.
func (b *breaker) available() bool { return !b.degraded.Load() }

// note records the outcome of one tier backend operation. A success
// closes the consecutive-error window; the threshold'th consecutive
// error trips the circuit. ErrEntryTooLarge is a per-entry decline, not
// a health signal, and is ignored.
func (b *breaker) note(err error) {
	if err == nil {
		b.consecutive.Store(0)
		return
	}
	if errors.Is(err, ErrEntryTooLarge) {
		return
	}
	b.errors.Add(1)
	if !b.enabled || b.degraded.Load() {
		return
	}
	if b.consecutive.Add(1) >= b.threshold {
		b.trip()
	}
}

// trip opens the circuit and starts the background prober.
func (b *breaker) trip() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.degraded.Load() {
		return
	}
	b.degraded.Store(true)
	b.trips.Add(1)
	if b.dirty == nil && !b.dirtyOverflow {
		b.dirty = make(map[string]struct{})
	}
	b.wg.Add(1)
	go b.retryLoop()
}

// markDirtyIfDegraded is the Set/Delete supersession gate. While the
// circuit is open it records key as superseded (to be tombstoned before
// restore) and returns true — the caller must skip its flash I/O. While
// closed it returns false. The degraded flag only flips to false under
// mu with the dirty set drained, so a key can never fall between "too
// late to tombstone now" and "missed by the restore sweep".
func (b *breaker) markDirtyIfDegraded(key string) bool {
	if b.available() {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.available() {
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
	if _, ok := b.dirty[key]; !ok {
		b.dirty[strings.Clone(key)] = struct{}{} // a Delete's key is the caller's to reuse
	}
	return true
}

// retryLoop probes the flash store with exponential backoff until a probe
// succeeds and the restore sweep completes, or the cache closes.
func (b *breaker) retryLoop() {
	defer b.wg.Done()
	backoff := b.retryMin
	for {
		select {
		case <-b.stop:
			return
		case <-time.After(backoff):
		}
		if backoff < b.retryMax {
			backoff *= 2
			if backoff > b.retryMax {
				backoff = b.retryMax
			}
		}
		// The probe: Tier.Sync (the flash store syncs its active segment,
		// the remote tier pings its peer). It exercises real backend I/O;
		// a backend that fails only on writes will pass the probe and
		// re-trip on the next demotion, which the backoff reset makes a
		// slow, bounded flap.
		if err := b.tier.Sync(); err != nil {
			b.errors.Add(1)
			continue
		}
		if b.restore() {
			return
		}
	}
}

// restore drains the dirty set (or wipes the tier after overflow) and
// closes the circuit. It returns false when disk errors interrupt the
// sweep — the caller goes back to backoff with the remaining dirty keys
// intact.
func (b *breaker) restore() bool {
	for {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return true
		}
		if b.dirtyOverflow {
			b.mu.Unlock()
			if err := b.tier.Reset(); err != nil {
				b.errors.Add(1)
				return false
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
			b.degraded.Store(false)
			b.consecutive.Store(0)
			b.restores.Add(1)
			b.mu.Unlock()
			return true
		}
		keys := make([]string, 0, len(b.dirty))
		for k := range b.dirty {
			keys = append(keys, k)
		}
		b.mu.Unlock()
		for _, k := range keys {
			if _, err := b.tier.Delete(k); err != nil {
				b.errors.Add(1)
				return false // k stays dirty; retried after backoff
			}
			b.mu.Lock()
			delete(b.dirty, k)
			b.mu.Unlock()
		}
	}
}

// close stops the background prober and waits for it to exit. Called by
// Cache.Close before the tier is closed, so the prober can never touch
// a closed backend.
func (b *breaker) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	close(b.stop)
	b.mu.Unlock()
	b.wg.Wait()
}
