package concurrent

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withSweep runs fn with the sweep trigger replaced by due.
func withSweep(due func(dead, queued int64) bool, fn func()) {
	defer func(old func(int64, int64) bool) { sweepDue = old }(sweepDue)
	sweepDue = due
	fn()
}

var (
	sweepAlways = func(dead, _ int64) bool { return dead > 0 }
	sweepNever  = func(int64, int64) bool { return false }
)

// TestSweepTimingMovesNoDecision: S's budget and G's size are read on
// live entries, so the golden replay makes the same decisions whether the
// tombstones are swept on every locked insert or never.
func TestSweepTimingMovesNoDecision(t *testing.T) {
	for _, shards := range []int{1, 8} {
		var always, never kvGolden
		withSweep(sweepAlways, func() { always = goldenKVReplay(shards) })
		withSweep(sweepNever, func() { never = goldenKVReplay(shards) })
		if always != never {
			t.Errorf("shards=%d: sweeping on every insert %+v, never %+v", shards, always, never)
		}
	}
}

// TestRetireReleasesValue: a deleted entry stays queued as a tombstone
// until a scan or a sweep reaches it, but it lets go of its value at once.
func TestRetireReleasesValue(t *testing.T) {
	const keys, deleted = 100, 10 // too few tombstones for a sweep
	kv := NewKV(KVConfig{MaxBytes: 1 << 20, Shards: 1})
	var finalized atomic.Int64
	setFinalized(kv, keys, &finalized)
	for i := 0; i < deleted; i++ {
		if !kv.Delete(fmt.Sprintf("k%03d", i)) {
			t.Fatalf("Delete(k%03d) found nothing", i)
		}
	}
	if n := kv.shards[0].small.len(); n != keys {
		t.Fatalf("S queues %d entries, want all %d (the deleted ones as tombstones)", n, keys)
	}
	for deadline := time.Now().Add(5 * time.Second); finalized.Load() < deleted && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := finalized.Load(); got != deleted {
		t.Fatalf("%d of %d deleted values were collected: their tombstones still hold the rest", got, deleted)
	}
	for i := deleted; i < keys; i++ {
		if v, ok := kv.Get(fmt.Sprintf("k%03d", i)); !ok || len(v) != 64 {
			t.Fatalf("Get(k%03d) = %d bytes, %v", i, len(v), ok)
		}
	}
	runtime.KeepAlive(kv)
}

// setFinalized stores keys values that report their collection, in its
// own frame so that no stack slot of the test keeps one.
//
//go:noinline
func setFinalized(kv *KV, keys int, finalized *atomic.Int64) {
	for i := 0; i < keys; i++ {
		v := make([]byte, 64)
		runtime.SetFinalizer(&v[0], func(*byte) { finalized.Add(1) })
		kv.Set(fmt.Sprintf("k%03d", i), v, 0)
	}
}

// TestOccupancyCountsLiveEntries: once deletes, resizing overwrites and
// expiries have left tombstones in both queues, Occupancy still adds up
// to Used and Len at rest.
func TestOccupancyCountsLiveEntries(t *testing.T) {
	withSweep(sweepNever, func() {
		var clock atomic.Int64
		kv := NewKV(KVConfig{MaxBytes: 4 << 10, Shards: 2, Now: clock.Load})
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20000; i++ {
			clock.Add(1)
			key := fmt.Sprintf("k%03d", int(rng.ExpFloat64()*100)%600)
			switch rng.Intn(8) {
			case 0:
				kv.Delete(key)
			case 1:
				kv.Set(key, make([]byte, 8+rng.Intn(17)), clock.Load()+1+rng.Int63n(2000))
			default:
				if _, ok := kv.Get(key); !ok {
					kv.Set(key, make([]byte, 16), 0)
				}
			}
		}
		clock.Add(10000)
		for i := 0; i < 600; i++ {
			kv.Get(fmt.Sprintf("k%03d", i)) // reaps every expired entry
		}
		occ := kv.Occupancy()
		if occ.MainLen == 0 || kv.Counters().TTLExpire == 0 || kv.Counters().ExplicitDelete == 0 {
			t.Fatalf("setup: M %d entries, %+v", occ.MainLen, kv.Counters())
		}
		queued := 0
		for _, s := range kv.shards {
			queued += s.small.len() + s.main.len()
		}
		if queued == kv.Len() {
			t.Fatal("setup: no tombstone is queued")
		}
		if occ.SmallBytes+occ.MainBytes != kv.Used() || occ.SmallLen+occ.MainLen != kv.Len() {
			t.Fatalf("Occupancy %+v, but Used %d and Len %d", occ, kv.Used(), kv.Len())
		}
	})
}

// TestGhostTracksLiveMain pins the ghost-sizing rule, a named deviation
// from core.S3FIFO: G is sized to M's live length (tombstones left out,
// as in Algorithm 1), but at the end of an eviction batch and only once
// that length has drifted 1/8, where core resizes after every eviction
// from S, to max(|M|, |index|).
func TestGhostTracksLiveMain(t *testing.T) {
	withSweep(sweepNever, func() {
		c := NewS3FIFOSharded(1000, 1)
		s := c.shards[0]
		for k := uint64(0); k < 1000; k++ {
			c.Set(k, nil)
			c.Get(k)
			c.Get(k)
		}
		for k := uint64(1000); k < 2000; k++ {
			c.Set(k, nil) // moves the hot first thousand into M
		}
		for k := uint64(0); k < 1000; k += 2 {
			c.Delete(k)
		}
		for k := uint64(2000); k < 2600; k++ {
			c.Set(k, nil) // refills what the deletes freed, then evicts
		}
		_, live := s.held(inMain)
		queued := s.main.len()
		if queued-live < 400 {
			t.Fatalf("setup: M queues %d entries, %d of them live", queued, live)
		}
		d := max(s.ghostSizedFor-live, live-s.ghostSizedFor)
		if s.ghost.Capacity() != max(s.ghostSizedFor, 16) || d*8 >= max(s.ghostSizedFor, 16) {
			t.Fatalf("G holds %d (sized for %d); M has %d live of %d queued", s.ghost.Capacity(), s.ghostSizedFor, live, queued)
		}
	})
}

// TestHookedDeleteWaitsForEviction: with an eviction hook, a Delete of a
// key whose eviction is in flight returns only once the hook has run, so
// a second tier's tombstone cannot land before the demotion it undoes.
// The eviction has already unmapped the key, so the Delete must take the
// shard mutex before it looks, not only when it finds the key.
func TestHookedDeleteWaitsForEviction(t *testing.T) {
	inHook, release := make(chan struct{}), make(chan struct{})
	kv := NewKV(KVConfig{MaxBytes: 100, Shards: 1, OnEvict: func(ev Eviction) {
		if ev.Key == "victim" {
			close(inHook)
			<-release
		}
	}})
	kv.Set("victim", make([]byte, 40), 0)
	go kv.Set("other", make([]byte, 80), 0) // evicts the victim
	<-inHook
	done := make(chan bool)
	go func() { done <- kv.Delete("victim") }()
	select {
	case <-done:
		t.Error("Delete returned while the eviction hook for its key was still running")
		close(release)
		return
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Delete never returned")
	}
}
