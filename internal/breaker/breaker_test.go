package breaker

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errDown = errors.New("backend down")

// newBreaker is New, stored where the test and its prober share it.
func newBreaker(threshold int, retryMin, retryMax time.Duration, probe func() error) *Breaker {
	b := new(Breaker)
	*b = New(threshold, retryMin, retryMax, probe)
	return b
}

// waitFor polls cond until it holds or the bounded wait runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTripsAtThreshold: a success resets the run of errors; the
// threshold'th consecutive error trips, and the trip reports itself once.
func TestTripsAtThreshold(t *testing.T) {
	b := newBreaker(3, time.Hour, time.Hour, func() error { return errDown })
	defer b.Close()
	b.Note(errDown)
	b.Note(errDown)
	b.Note(nil)
	b.Note(errDown)
	if b.Note(errDown) || !b.Available() {
		t.Fatal("tripped before three consecutive errors")
	}
	if !b.Note(errDown) || b.Available() {
		t.Fatal("third consecutive error did not trip")
	}
	if b.Note(errDown) {
		t.Fatal("an open circuit tripped again")
	}
	if b.Errors() != 6 || b.Trips() != 1 || b.Restores() != 0 {
		t.Fatalf("errors=%d trips=%d restores=%d, want 6 1 0", b.Errors(), b.Trips(), b.Restores())
	}
}

// TestNonPositiveThresholdNeverTrips: a threshold ≤ 0 is a disabled
// breaker (the cache's negative FlashBreakerThreshold): errors are
// counted, the circuit stays closed and no probe runs.
func TestNonPositiveThresholdNeverTrips(t *testing.T) {
	for _, threshold := range []int{0, -1} {
		var probes atomic.Int64
		b := newBreaker(threshold, time.Millisecond, time.Millisecond, func() error {
			probes.Add(1)
			return nil
		})
		for i := 0; i < 100; i++ {
			if b.Note(errDown) {
				t.Fatalf("threshold %d: tripped", threshold)
			}
		}
		time.Sleep(10 * time.Millisecond)
		b.Close()
		if !b.Available() || b.Errors() != 100 || b.Trips() != 0 || probes.Load() != 0 {
			t.Fatalf("threshold %d: available=%v errors=%d trips=%d probes=%d, want true 100 0 0",
				threshold, b.Available(), b.Errors(), b.Trips(), probes.Load())
		}
	}
}

// TestRetripDuringProbeIsProbedAgain is the re-trip window: the probe
// closes the circuit and, before it returns, a threshold's worth of
// errors trips it again. The prober that is still inside the probe must
// not be the only hope of closing it; the circuit must close again.
func TestRetripDuringProbeIsProbedAgain(t *testing.T) {
	b := new(Breaker)
	var probes atomic.Int64
	*b = New(3, time.Millisecond, time.Millisecond, func() error {
		b.Restore()
		if probes.Add(1) == 1 {
			for i := 0; i < 3; i++ {
				b.Note(errDown)
			}
		}
		return nil
	})
	defer b.Close()
	b.Trip()
	waitFor(t, "the circuit closes after the re-trip", func() bool {
		return b.Available() && b.Restores() == 2
	})
	if b.Trips() != 2 || probes.Load() != 2 {
		t.Fatalf("trips=%d probes=%d, want 2 2", b.Trips(), probes.Load())
	}
}

// TestCloseDuringBackoffRunsNoProbe: Close while the prober waits out its
// delay returns promptly, and no probe runs, then or later.
func TestCloseDuringBackoffRunsNoProbe(t *testing.T) {
	var probes atomic.Int64
	b := newBreaker(1, time.Hour, time.Hour, func() error {
		probes.Add(1)
		return nil
	})
	b.Note(errDown)
	start := time.Now()
	b.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v during an hour's backoff", d)
	}
	if b.Trip() {
		t.Fatal("a closed breaker tripped")
	}
	if probes.Load() != 0 {
		t.Fatalf("%d probes ran", probes.Load())
	}
}

// TestBackoffDoublesToItsCap: a probe that keeps failing is retried after
// delays that double from the minimum and then stay at the maximum, and
// every failure is counted.
func TestBackoffDoublesToItsCap(t *testing.T) {
	want := []time.Duration{10, 20, 40, 50, 50, 50}
	fired := make(chan time.Time)
	close(fired)
	var mu sync.Mutex
	var delays []time.Duration
	b := newBreaker(1, 10*time.Millisecond, 50*time.Millisecond, func() error { return errDown })
	b.after = func(d time.Duration) <-chan time.Time {
		mu.Lock()
		defer mu.Unlock()
		delays = append(delays, d/time.Millisecond)
		if len(delays) > len(want) {
			return nil // wait for Close
		}
		return fired
	}
	b.Note(errDown)
	waitFor(t, "every probe has failed", func() bool { return b.Errors() == uint64(1+len(want)) })
	b.Close()
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(delays[:len(want)], want) {
		t.Fatalf("delays %v ms, want %v then a wait", delays, want)
	}
	if b.Available() || b.Restores() != 0 {
		t.Fatal("a failing probe closed the circuit")
	}
}
