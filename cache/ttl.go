package cache

import "time"

// now is indirected for tests. Both engines read TTLs through this clock
// (the concurrent engine receives it as a closure at construction).
var now = time.Now

// expiredAt is the repository's one TTL boundary rule: an entry with a
// deadline is expired strictly after it — at the exact expiry instant it
// still serves. Every layer that judges freshness (both engines, the
// eviction-time demotion check, and the facade's double-check on values
// returned by a second tier) routes through this comparison, so a key
// can never be fresh in one layer and expired in another at the same
// clock reading.
func expiredAt(expiresAt, nowNano int64) bool {
	return expiresAt != 0 && nowNano > expiresAt
}

// SetWithTTL stores value under key with a time-to-live. After ttl
// elapses the entry no longer serves hits; its space is reclaimed lazily
// on the next Get/Contains of the key or when the eviction policy removes
// it, whichever comes first (the Segcache-style lazy expiration model —
// proactive scanning is unnecessary because expired objects stop
// receiving hits and therefore age out of any of this repository's
// policies). A non-positive ttl stores the entry without expiry.
func (c *Cache) SetWithTTL(key string, value []byte, ttl time.Duration) bool {
	if ttl <= 0 {
		return c.Set(key, value)
	}
	return c.set(key, value, now().Add(ttl).UnixNano())
}
