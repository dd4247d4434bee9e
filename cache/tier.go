// The second-tier seam. cache/tiered.go used to be hard-coupled to
// internal/flash; Tier generalizes "the layer under DRAM" into a small
// storage interface so the same demotion/promotion/admission/breaker
// machinery runs over any backend. Two implementations ship, and
// Config.SecondTier takes any other:
//
//   - "flash"  — the log-structured segment store (internal/flash), the
//     production tier from the paper's §5.4 flash study.
//   - "remote" — a peer s3cached node reached over the pipelined binary
//     protocol (tier_remote.go): DRAM evictions demote to the peer, DRAM
//     misses fall through to it.
//
// The circuit breaker (breaker.go) wraps any Tier: K consecutive errors
// degrade the cache to DRAM-only, a background Sync probe restores it,
// and keys superseded while degraded are tombstoned before the circuit
// closes — the PR 5 consistency guarantees, now backend-agnostic.
package cache

import "errors"

// ErrEntryTooLarge is returned by a Tier's Put when the entry exceeds
// the backend's limits (e.g. the binary protocol's 250-byte key cap on
// the remote tier). It signals a per-entry decline, not backend
// sickness: the breaker does not count it as an I/O error.
var ErrEntryTooLarge = errors.New("cache: entry too large for tier")

// Tier is a second cache tier below DRAM: a store for entries demoted
// at DRAM eviction, read back on DRAM misses. Implementations must be
// safe for concurrent use — Put is called from engine eviction hooks
// (under engine locks) while Get/Contains run from other goroutines.
//
// Error discipline: Get and Delete separate "not present" (ok/existed
// false, nil error) from backend failure (non-nil error). Every non-nil
// error except ErrEntryTooLarge feeds the circuit breaker's
// consecutive-error window, so implementations should return errors
// only for genuine backend trouble.
//
// Keys follow the Engine's borrowed-key contract: Get, Contains and
// Delete are lent theirs for the call and must not retain it; Put's key
// is the tier's to keep.
type Tier interface {
	// Kind returns the tier's name ("flash", "remote", ...),
	// surfaced in Stats, /stats and /healthz.
	Kind() string
	// Get returns the value and absolute expiry stored for key.
	// ok=false, err=nil is a clean miss.
	Get(key string) (value []byte, expiresAt int64, ok bool, err error)
	// Contains reports whether key is present and unexpired, without
	// counting a hit or touching access state.
	Contains(key string) bool
	// Put stores value under key with an optional absolute expiry (unix
	// nanoseconds, 0 = none).
	Put(key string, value []byte, expiresAt int64) error
	// Delete removes key, reporting whether it was present. A no-op
	// delete (existed=false) touches no backend I/O and carries no
	// health signal.
	Delete(key string) (existed bool, err error)
	// Sync flushes buffered state to the backend. The breaker uses it as
	// its health probe, so it must exercise real backend I/O.
	Sync() error
	// Reset drops every entry this node stored in the tier, returning it
	// to empty. The breaker's dirty-overflow recovery depends on it: after
	// Reset no previously stored value may ever be served again.
	Reset() error
	// Stats returns cumulative counters since the tier was opened.
	Stats() TierStats
	// Close releases the tier. The store must not be used afterwards.
	Close() error
}

// TierStats are cumulative second-tier counters, aggregated into
// cache.Stats (the Flash* fields keep their historical names — they now
// describe whichever tier is configured).
type TierStats struct {
	Hits, Misses uint64
	// Entries is the current live-entry count (point-in-time, not
	// cumulative); Segments the backend's file/segment count, 0 when the
	// concept does not apply (remote).
	Entries  uint64
	Segments uint64
	// BytesWritten counts every byte written to the backend (the
	// write-amplification numerator); GCBytes the subset rewritten by
	// compaction/reclamation.
	BytesWritten uint64
	GCBytes      uint64
}
