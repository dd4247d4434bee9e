package server

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Anti-stampede defaults; see AntiStampede for what each knob does.
const (
	defaultCoalesceWait = 50 * time.Millisecond
	defaultMaxInflight  = 4096
	defaultLeaseTTL     = 2 * time.Second
	defaultNegativeTTL  = 5 * time.Second
)

// AntiStampede configures the server's miss-coalescing and lease
// protocol (GETX/SETX). Enable it with WithAntiStampede; zero fields
// take the documented defaults.
type AntiStampede struct {
	// Coalesce parks concurrent plain-GET misses for one key on a single
	// in-flight fill slot: the first getter becomes the implicit fill
	// leader (it sees a plain miss and is expected to Set), later getters
	// wait up to CoalesceWait for that Set and are answered from it. Off,
	// every miss is independent. GETX/SETX work regardless of this flag.
	Coalesce bool
	// CoalesceWait bounds how long a parked lookup waits for the
	// in-flight fill before degrading to an ordinary miss. Default 50ms.
	CoalesceWait time.Duration
	// MaxInflight bounds the fill-slot table. When it is full (after a
	// sweep of expired leases) new misses degrade to uncoalesced,
	// lease-less misses — bounded memory beats perfect coalescing under
	// a pathological distinct-key storm. Default 4096.
	MaxInflight int
	// LeaseTTL is how long a granted lease stays exclusive. A holder
	// that has not redeemed by then is presumed dead: the next GETX for
	// the key is granted a fresh token and the stale token is rejected
	// at redeem time. Default 2s.
	LeaseTTL time.Duration
	// Grace is the stale-while-revalidate window: a GETX may be answered
	// with a value whose TTL passed no more than Grace ago while the
	// lease holder refills. 0 (the default) disables stale serving.
	// A GETX request may narrow the window for itself, never widen it.
	Grace time.Duration
	// NegativeTTL is the tombstone TTL recorded by a negative SETX (the
	// lease holder confirming the backend has no such key) when the
	// request does not carry its own. Default 5s.
	NegativeTTL time.Duration
}

// withDefaults fills zero fields.
func (a AntiStampede) withDefaults() AntiStampede {
	if a.CoalesceWait <= 0 {
		a.CoalesceWait = defaultCoalesceWait
	}
	if a.MaxInflight <= 0 {
		a.MaxInflight = defaultMaxInflight
	}
	if a.LeaseTTL <= 0 {
		a.LeaseTTL = defaultLeaseTTL
	}
	if a.NegativeTTL <= 0 {
		a.NegativeTTL = defaultNegativeTTL
	}
	return a
}

// WithAntiStampede enables the anti-stampede machinery: the bounded
// in-flight fill table behind miss coalescing and GETX/SETX leases.
// Without this option GETX degrades gracefully — it behaves like GET
// and never grants a lease — and SETX always answers lease-invalid.
func WithAntiStampede(cfg AntiStampede) Option {
	return func(s *Server) {
		cfg = cfg.withDefaults()
		s.grace = cfg.Grace
		s.negTTL = cfg.NegativeTTL
		s.co = newCoalescer(cfg)
	}
}

// fillSlot is one in-flight fill: the rendezvous between the lease
// holder (or implicit plain-GET leader) refilling a key and every other
// request for that key that arrived meanwhile. Waiters block on done;
// the outcome fields are written under the coalescer mutex before done
// closes and read under it after.
type fillSlot struct {
	done    chan struct{}
	token   uint64    // current lease token; rotates on re-grant
	expires time.Time // lease deadline

	value   []byte // fill result when stored
	stored  bool   // a usable value was stored
	invalid bool   // a Delete raced the fill; result must not serve
	closed  bool   // done has been closed (guards double close)
}

// coalescer is the server's in-flight fill table: at most one live fill
// slot per key, bounded at max slots total. It is deliberately a plain
// mutex-guarded map — entries live for one backend round trip (a few
// ms), the critical sections are a handful of map operations, and the
// table is touched only on the miss path, which by definition is about
// to pay a backend fetch that dwarfs any lock here.
type coalescer struct {
	coalesce bool
	wait     time.Duration
	max      int
	leaseTTL time.Duration

	mu    sync.Mutex
	slots map[string]*fillSlot
	seq   uint64

	grants        atomic.Uint64 // leases granted, re-grants included
	regrants      atomic.Uint64 // grants that replaced an expired lease
	redeems       atomic.Uint64 // SETX fills accepted
	rejects       atomic.Uint64 // SETX with an unknown, stale, or raced token
	waits         atomic.Uint64 // lookups parked on a fill slot
	waitHits      atomic.Uint64 // parks resolved with a value
	waitMisses    atomic.Uint64 // parks resolved without one (negative fill, decline, delete)
	waitTimeouts  atomic.Uint64 // parks that outlived CoalesceWait
	invalidations atomic.Uint64 // slots killed by a Delete
	overflows     atomic.Uint64 // misses degraded because the table was full
}

func newCoalescer(cfg AntiStampede) *coalescer {
	return &coalescer{
		coalesce: cfg.Coalesce,
		wait:     cfg.CoalesceWait,
		max:      cfg.MaxInflight,
		leaseTTL: cfg.LeaseTTL,
		slots:    make(map[string]*fillSlot),
	}
}

// nextTokenLocked mints a non-zero opaque lease token. Tokens only need
// to be unguessable-by-accident — they fence a stalled holder's late
// redeem, not a hostile client (any client may DELETE, which is
// strictly stronger).
func (co *coalescer) nextTokenLocked() uint64 {
	co.seq++
	t := co.seq * 0x9E3779B97F4A7C15
	if t == 0 {
		t = 1
	}
	return t
}

// acquire resolves who fills key. The three outcomes:
//
//   - leader (leader=true): the caller now holds the key's lease — slot
//     carries its token — and is expected to fill (SETX, or a plain Set
//     from a plain-GET leader).
//   - follower (ok=true, leader=false): a fill is already in flight;
//     the caller may park on slot.done or serve a stale value.
//   - overflow (ok=false): the table is full even after sweeping
//     expired leases; the caller degrades to an uncoalesced miss.
//
// An expired lease re-grants in place: same slot (existing waiters keep
// waiting), fresh token (the stalled holder's late SETX is fenced).
func (co *coalescer) acquire(key string) (slot *fillSlot, leader, ok bool) {
	nw := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	if s := co.slots[key]; s != nil {
		if !nw.After(s.expires) {
			return s, false, true
		}
		s.token = co.nextTokenLocked()
		s.expires = nw.Add(co.leaseTTL)
		co.grants.Add(1)
		co.regrants.Add(1)
		return s, true, true
	}
	if len(co.slots) >= co.max {
		co.sweepLocked(nw)
		if len(co.slots) >= co.max {
			co.overflows.Add(1)
			return nil, false, false
		}
	}
	s := &fillSlot{
		done:    make(chan struct{}),
		token:   co.nextTokenLocked(),
		expires: nw.Add(co.leaseTTL),
	}
	// The key came in on a lookup and may alias the connection's read
	// buffer; the table outlives the request, so it keeps a copy.
	co.slots[strings.Clone(key)] = s
	co.grants.Add(1)
	return s, true, true
}

// sweepLocked drops slots whose lease expired, waking their waiters
// with a miss. Only the overflow path pays this O(table) walk.
func (co *coalescer) sweepLocked(nw time.Time) {
	for k, s := range co.slots {
		if nw.After(s.expires) {
			delete(co.slots, k)
			co.closeLocked(s)
		}
	}
}

// closeLocked closes a slot's done channel exactly once. Callers hold
// the mutex and have already written the outcome fields.
func (co *coalescer) closeLocked(s *fillSlot) {
	if !s.closed {
		s.closed = true
		close(s.done)
	}
}

// park blocks on an in-flight fill and returns its outcome: the filled
// value, or a miss (negative fill, declined store, delete, or timeout).
func (co *coalescer) park(slot *fillSlot) ([]byte, bool) {
	co.waits.Add(1)
	timer := time.NewTimer(co.wait)
	defer timer.Stop()
	select {
	case <-slot.done:
	case <-timer.C:
		co.waitTimeouts.Add(1)
		return nil, false
	}
	co.mu.Lock()
	v, stored := slot.value, slot.stored
	co.mu.Unlock()
	if stored {
		co.waitHits.Add(1)
		return v, true
	}
	co.waitMisses.Add(1)
	return nil, false
}

// complete resolves key's fill slot from a plain Set: waiters wake with
// value when the store was accepted, with a miss otherwise.
func (co *coalescer) complete(key string, value []byte, stored bool) {
	co.mu.Lock()
	if s := co.slots[key]; s != nil {
		delete(co.slots, key)
		s.value = value
		s.stored = stored
		co.closeLocked(s)
	}
	co.mu.Unlock()
}

// invalidate resolves key's fill slot from a Delete: waiters wake with
// a miss, and the slot is flagged so an in-flight SETX redeem learns at
// redeemEnd that its result must not survive (no resurrection of
// deleted keys).
func (co *coalescer) invalidate(key string) {
	co.mu.Lock()
	if s := co.slots[key]; s != nil {
		delete(co.slots, key)
		s.invalid = true
		co.closeLocked(s)
		co.invalidations.Add(1)
	}
	co.mu.Unlock()
}

// redeemBegin validates a SETX token. A nil result means the token is
// unknown, rotated away, or past its lease deadline — the fill is
// rejected before touching the cache. On success the slot stays in the
// table (a racing Delete must still be able to flag it) and the caller
// stores, then calls redeemEnd.
func (co *coalescer) redeemBegin(key string, token uint64) *fillSlot {
	nw := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	s := co.slots[key]
	if s == nil || s.token != token || nw.After(s.expires) {
		co.rejects.Add(1)
		return nil
	}
	return s
}

// redeemEnd publishes a redeemed fill's outcome after the caller's
// cache store. It reports false when a Delete raced the store — the
// caller must undo its store so the deleted key cannot resurrect; the
// delete's waiters have already been answered with a miss.
func (co *coalescer) redeemEnd(key string, slot *fillSlot, value []byte, stored bool) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	if slot.invalid {
		co.rejects.Add(1)
		return false
	}
	if co.slots[key] == slot {
		delete(co.slots, key)
	}
	slot.value = value
	slot.stored = stored
	co.closeLocked(slot)
	co.redeems.Add(1)
	return true
}

// inflight returns the current fill-slot count (scrape-time).
func (co *coalescer) inflight() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.slots)
}
