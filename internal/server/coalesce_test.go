package server

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s3fifo/cache"
	"s3fifo/internal/proto"
)

func newStampedeServer(t *testing.T, cfg AntiStampede) *Server {
	t.Helper()
	c, err := cache.New(cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return New(c, WithAntiStampede(cfg))
}

// TestCoalescerSingleFillSlot is the core concurrency property: N
// goroutines racing acquire() for one key produce exactly one leader
// and one fill slot, and after the leader's fill every waiter observes
// the same value. Run under -race (make race).
func TestCoalescerSingleFillSlot(t *testing.T) {
	const n = 64
	co := newCoalescer(AntiStampede{}.withDefaults())
	var (
		leaders  atomic.Int32
		acquired sync.WaitGroup // barrier: the leader fills only once every racer holds the slot
		start    = make(chan struct{})
		slots    = make(chan *fillSlot, n)
		outcomes = make(chan []byte, n)
		wg       sync.WaitGroup
	)
	fill := []byte("the one fill")
	acquired.Add(n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			slot, leader, ok := co.acquire("k")
			acquired.Done()
			if !ok {
				t.Error("acquire overflowed with an empty table")
				return
			}
			slots <- slot
			if leader {
				leaders.Add(1)
				// The leader "fetches the backend" — waiting out the other
				// racers stands in for the fetch latency that lets a real
				// herd pile onto the slot — then resolves it the way a
				// plain-GET leader's Set would.
				acquired.Wait()
				co.complete("k", fill, true)
				outcomes <- fill
				return
			}
			v, ok := co.park(slot)
			if !ok {
				t.Error("waiter resolved as miss against a successful fill")
				return
			}
			outcomes <- v
		}()
	}
	close(start)
	wg.Wait()
	close(slots)
	close(outcomes)

	if got := leaders.Load(); got != 1 {
		t.Fatalf("got %d leaders, want exactly 1", got)
	}
	var first *fillSlot
	for s := range slots {
		if first == nil {
			first = s
		} else if s != first {
			t.Fatal("racing acquires produced more than one fill slot")
		}
	}
	count := 0
	for v := range outcomes {
		count++
		if !bytes.Equal(v, fill) {
			t.Fatalf("waiter observed %q, want %q", v, fill)
		}
	}
	if count != n {
		t.Fatalf("%d goroutines reported, want %d", count, n)
	}
	if co.grants.Load() != 1 {
		t.Fatalf("grants = %d, want 1", co.grants.Load())
	}
	if got := co.inflight(); got != 0 {
		t.Fatalf("inflight = %d after completion, want 0", got)
	}
}

// TestCoalescerWaitersShareFailure: when the fill resolves without a
// stored value (backend error, declined store), every waiter sees the
// same miss — not a mix of outcomes.
func TestCoalescerWaitersShareFailure(t *testing.T) {
	const n = 16
	co := newCoalescer(AntiStampede{}.withDefaults())
	slot, leader, ok := co.acquire("k")
	if !ok || !leader {
		t.Fatal("first acquire must lead")
	}
	var wg sync.WaitGroup
	misses := make(chan bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, lead, ok := co.acquire("k")
			if !ok || lead || s != slot {
				t.Error("follower acquire must join the existing slot")
				return
			}
			_, got := co.park(s)
			misses <- !got
		}()
	}
	time.Sleep(5 * time.Millisecond) // let followers park
	co.complete("k", nil, false)
	wg.Wait()
	close(misses)
	for m := range misses {
		if !m {
			t.Fatal("a waiter observed a value from a failed fill")
		}
	}
}

// TestCoalescerDeleteInvalidatesFill covers the no-resurrection
// interleaving deterministically: redeem begins, the Delete lands, the
// redeem must be refused so the caller undoes its store.
func TestCoalescerDeleteInvalidatesFill(t *testing.T) {
	co := newCoalescer(AntiStampede{}.withDefaults())
	slot, leader, ok := co.acquire("k")
	if !ok || !leader {
		t.Fatal("first acquire must lead")
	}
	waiterDone := make(chan bool, 1)
	go func() {
		_, got := co.park(slot)
		waiterDone <- got
	}()
	time.Sleep(2 * time.Millisecond)

	redeeming := co.redeemBegin("k", slot.token)
	if redeeming == nil {
		t.Fatal("valid token rejected")
	}
	co.invalidate("k") // the racing Delete
	if co.redeemEnd("k", redeeming, []byte("late fill"), true) {
		t.Fatal("redeemEnd accepted a fill a Delete had invalidated")
	}
	if got := <-waiterDone; got {
		t.Fatal("waiter observed a value after the Delete")
	}
	// The slot is gone; a fresh acquire starts a new fill generation.
	if _, leader, ok := co.acquire("k"); !ok || !leader {
		t.Fatal("post-delete acquire must grant a fresh lease")
	}
}

// TestSetxDeleteRaceNoResurrection hammers the full server-level path:
// a SETX redeem racing a DELETE. Whatever the interleaving, a rejected
// redeem must leave the key absent — a deleted key may never
// resurrect through a slow in-flight fill. Run under -race.
func TestSetxDeleteRaceNoResurrection(t *testing.T) {
	s := newStampedeServer(t, AntiStampede{Coalesce: true})
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("k%04d", i)
		_, tok, _, out := s.getxBegin(key, 0)
		if out != getxLease {
			t.Fatalf("iter %d: expected a lease, got %v", i, out)
		}
		var wg sync.WaitGroup
		var st proto.Status
		wg.Add(2)
		go func() {
			defer wg.Done()
			st = s.setx(key, tok, []byte("v"), 0, false)
		}()
		go func() {
			defer wg.Done()
			s.cache.Delete(key)
			s.noteDelete(key)
		}()
		wg.Wait()
		if st == proto.StatusLeaseInvalid {
			if _, ok := s.cache.Get(key); ok {
				t.Fatalf("iter %d: rejected redeem left the deleted key resident", i)
			}
		}
	}
}

// TestCoalescerOverflowDegrades: a full table degrades new keys to
// uncoalesced misses instead of growing without bound.
func TestCoalescerOverflowDegrades(t *testing.T) {
	co := newCoalescer(AntiStampede{MaxInflight: 2}.withDefaults())
	if _, leader, ok := co.acquire("a"); !ok || !leader {
		t.Fatal("acquire a")
	}
	if _, leader, ok := co.acquire("b"); !ok || !leader {
		t.Fatal("acquire b")
	}
	if _, _, ok := co.acquire("c"); ok {
		t.Fatal("third key must overflow a 2-slot table")
	}
	if co.overflows.Load() != 1 {
		t.Fatalf("overflows = %d, want 1", co.overflows.Load())
	}
	// Resolving a slot frees capacity.
	co.complete("a", nil, false)
	if _, leader, ok := co.acquire("c"); !ok || !leader {
		t.Fatal("acquire after drain must lead")
	}
}

// TestCoalescerLeaseExpiryRegrant: a stalled holder's lease re-grants
// in place — same slot (waiters keep waiting), fresh token — and the
// stale token is fenced at redeem time.
func TestCoalescerLeaseExpiryRegrant(t *testing.T) {
	co := newCoalescer(AntiStampede{LeaseTTL: 5 * time.Millisecond}.withDefaults())
	slot1, leader, ok := co.acquire("k")
	if !ok || !leader {
		t.Fatal("first acquire must lead")
	}
	stale := slot1.token
	time.Sleep(10 * time.Millisecond)
	slot2, leader, ok := co.acquire("k")
	if !ok || !leader {
		t.Fatal("post-expiry acquire must re-grant leadership")
	}
	if slot2 != slot1 {
		t.Fatal("re-grant must reuse the slot so existing waiters survive")
	}
	if slot2.token == stale {
		t.Fatal("re-grant must rotate the token")
	}
	if co.redeemBegin("k", stale) != nil {
		t.Fatal("stale token accepted after re-grant")
	}
	if co.redeemBegin("k", slot2.token) == nil {
		t.Fatal("fresh token rejected")
	}
	if co.regrants.Load() != 1 {
		t.Fatalf("regrants = %d, want 1", co.regrants.Load())
	}
}
