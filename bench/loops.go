package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs every client back to back for d: each sends its next
// request only when the previous one has completed, so there are always
// len(cs) requests outstanding. ls, if non-nil, gives each client a
// recorder for 1-in-64 sampled call durations. It returns the wall time
// the loop actually took.
func closedLoop(cs []*vclient, stores []store, d time.Duration, ls []*lats) time.Duration {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	defer timer.Stop()
	for i, c := range cs {
		var l *lats
		if ls != nil {
			l = ls[i]
		}
		wg.Add(1)
		go func(c *vclient, s store, l *lats) {
			defer wg.Done()
			for !stop.Load() {
				c.step(s, 0, l)
			}
		}(c, stores[i], l)
	}
	wg.Wait()
	return time.Since(start)
}

// openResult is what the generator has to say about an open-loop phase.
type openResult struct {
	offered  uint64 // ops the schedule called for
	achieved uint64 // ops completed by the end of the phase
	maxLag   int64  // ns: the latest the generator itself woke after an op was due
	late     uint64 // wake-ups more than 1 ms late
}

// openLoop sends at a fixed total rate for d regardless of replies: client
// i's k-th op is due at start + (i/n + k)*period. A client that is still
// waiting for a reply when its next op falls due sends it as soon as it
// can, and every latency is counted from the due time, so a stall shows in
// the latencies of the requests it delayed. A client that falls behind
// keeps sending until it has caught up or a grace of d/4 past the end of
// the schedule has run out; what it has not sent by then is the shortfall
// of achieved against offered.
func openLoop(cs []*vclient, stores []store, rate float64, d time.Duration, ls []*lats, spin bool) openResult {
	period := time.Duration(float64(len(cs)) / rate * float64(time.Second))
	perClient := int(d / period)
	start := time.Now().Add(2 * time.Millisecond)
	giveUp := start.Add(d + d/4).UnixNano()
	res := openResult{offered: uint64(perClient * len(cs))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, c := range cs {
		first := start.Add(period * time.Duration(i) / time.Duration(len(cs))).UnixNano()
		wg.Add(1)
		go func(c *vclient, s store, l *lats, first int64) {
			defer wg.Done()
			var r openResult
			for k := 0; k < perClient; k++ {
				due := first + int64(k)*int64(period)
				now := nowNano()
				if now < due {
					// Idle until the op is due: how late the wake-up is, is the
					// generator's own lag. (An op that is late because the
					// previous reply was still outstanding is the system's
					// doing, and shows in the latencies instead.)
					if spin {
						for now < due {
							now = nowNano()
						}
					} else {
						time.Sleep(time.Duration(due - now))
						now = nowNano()
					}
					if lag := now - due; lag > r.maxLag {
						r.maxLag = lag
					}
					if now-due > int64(time.Millisecond) {
						r.late++
					}
				}
				if now > giveUp {
					break
				}
				c.step(s, due, l)
				r.achieved++
			}
			mu.Lock()
			res.achieved += r.achieved
			res.late += r.late
			if r.maxLag > res.maxLag {
				res.maxLag = r.maxLag
			}
			mu.Unlock()
		}(c, stores[i], ls[i], first)
	}
	wg.Wait()
	return res
}
