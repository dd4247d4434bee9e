// Package breaker is the circuit breaker of the cache's second tier
// (cache/breaker.go) and of the cluster router's nodes (cluster/node.go).
// A run of consecutive errors trips the circuit open; while it is open
// the caller keeps its traffic off the backend, and a background prober
// calls the caller's probe with exponential backoff until the probe finds
// the backend healthy and closes the circuit with Restore.
//
// Each trip starts its own prober, under the breaker's mutex, and a
// prober ends once the circuit it was started for has closed. A re-trip
// that lands while the previous prober is still inside its probe thus
// starts a fresh one: the circuit is never left open with nobody probing.
package breaker

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultThreshold is the consecutive-error count that trips a circuit
// when the caller has no setting of its own.
const DefaultThreshold = 3

// Breaker is one circuit. All methods are safe for concurrent use; while
// the circuit is closed, Available costs one atomic load and a successful
// Note one atomic store.
type Breaker struct {
	threshold uint64 // consecutive errors that trip; 0 never trips
	retryMin  time.Duration
	retryMax  time.Duration
	probe     func() error
	after     func(time.Duration) <-chan time.Time // time.After; tests replace it

	open        atomic.Bool
	consecutive atomic.Uint64
	errors      atomic.Uint64 // every error noted or returned by a probe
	trips       atomic.Uint64
	restores    atomic.Uint64

	mu     sync.Mutex // orders trips, restores and Close
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// New returns a closed circuit, to be stored where it stays (embedded in
// its owner, so Available is one load away; it must not be copied once
// used). threshold is the consecutive-error count that trips it; a
// threshold ≤ 0 counts errors but never trips. retryMin and retryMax
// bound the prober's backoff (non-positive values take 100 ms and 30 s).
// probe runs on the prober after each backoff delay while the circuit is
// open: it checks the backend and, once the backend is healthy, closes
// the circuit with Restore. An error it returns is counted, and the
// prober backs off again.
func New(threshold int, retryMin, retryMax time.Duration, probe func() error) Breaker {
	if retryMin <= 0 {
		retryMin = 100 * time.Millisecond
	}
	if retryMax <= 0 {
		retryMax = 30 * time.Second
	}
	return Breaker{
		threshold: uint64(max(threshold, 0)),
		retryMin:  retryMin,
		retryMax:  max(retryMax, retryMin),
		probe:     probe,
		after:     time.After,
		stop:      make(chan struct{}),
	}
}

// Available reports whether the circuit is closed: traffic may reach the
// backend.
func (b *Breaker) Available() bool { return !b.open.Load() }

// Errors, Trips and Restores are the breaker's telemetry: errors noted
// (probe failures included), times the circuit opened, and times a probe
// closed it.
func (b *Breaker) Errors() uint64   { return b.errors.Load() }
func (b *Breaker) Trips() uint64    { return b.trips.Load() }
func (b *Breaker) Restores() uint64 { return b.restores.Load() }

// Note records the outcome of one backend operation. A success ends the
// consecutive-error run; the threshold'th consecutive error trips the
// circuit, and Note reports whether this call did. Callers filter out
// errors that say nothing about the backend's health before noting them.
func (b *Breaker) Note(err error) (tripped bool) {
	if err == nil {
		b.consecutive.Store(0)
		return false
	}
	b.errors.Add(1)
	if b.threshold == 0 || b.open.Load() {
		return false
	}
	return b.consecutive.Add(1) >= b.threshold && b.Trip()
}

// Trip opens the circuit and starts its prober, unless it is already
// open or the breaker is closed; it reports whether it opened the
// circuit. Note calls it at the threshold; a caller that knows the
// backend is down without counting (a cluster member unreachable when it
// joins) calls it directly.
func (b *Breaker) Trip() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.open.Load() {
		return false
	}
	b.open.Store(true)
	b.wg.Add(1)
	go b.probeLoop(b.trips.Add(1))
	return true
}

// Restore closes the circuit. The probe calls it once the backend is
// healthy; a caller whose own state must change in step with the circuit
// (the cache's dirty set) calls it under that state's lock.
func (b *Breaker) Restore() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.open.Load() {
		b.open.Store(false)
		b.consecutive.Store(0)
		b.restores.Add(1)
	}
}

// probeLoop is the prober the trip'th trip started. It probes with
// exponential backoff until the circuit that trip opened has closed, or
// the breaker is closed.
func (b *Breaker) probeLoop(trip uint64) {
	defer b.wg.Done()
	delay := b.retryMin
	for {
		select {
		case <-b.stop:
			return
		case <-b.after(delay):
		}
		delay = min(2*delay, b.retryMax)
		if err := b.probe(); err != nil {
			b.errors.Add(1)
		}
		// Done once the circuit has closed, even if it has tripped again
		// since: that trip started a prober of its own.
		b.mu.Lock()
		done := !b.open.Load() || b.trips.Load() != trip
		b.mu.Unlock()
		if done {
			return
		}
	}
}

// Close stops the prober and waits for it to return; no probe starts
// after Close returns, and the circuit no longer trips. Callers close the
// breaker before the backend, so a probe never touches a closed backend.
func (b *Breaker) Close() {
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
