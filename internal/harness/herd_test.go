package harness

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/internal/server"
)

// herdConfig parameterizes the thundering-herd measurement the
// anti-stampede machinery (DESIGN.md §14) exists to prevent: a hot set of
// keys warmed with one shared TTL so every copy expires at the same
// instant, then a fleet of workers sweeping that hot set — every one of
// them finding every key missing at once. The metric is backend fill
// amplification: how many times the simulated backend is fetched per
// unique hot key. A perfectly coalesced cache refetches each key once
// (amplification 1.0); a naive cache refetches it once per concurrent
// client.
//
// Three serving modes isolate each layer's contribution:
//
//	off       plain GET/SET, no server assistance — the baseline herd
//	coalesce  server-side miss coalescing of plain GETs (followers park
//	          on the leader's in-flight fill)
//	lease     the full GETX/SETX protocol: one lease holder refills
//	          while everyone else is served the stale value inside the
//	          grace window, and confirmed-absent keys are negatively
//	          cached
//
// Alongside the hot sweep runs the background traffic that makes the
// cache realistic rather than a single-purpose rig: a one-hit-wonder
// stream (unique keys, read once — the S3-FIFO small queue's prey) and a
// burst scan, plus lookups for keys the backend does not have, which is
// what negative caching is for.
type herdConfig struct {
	hotKeys int // the synchronized-expiry hot set
	// workers sweep the hot set concurrently, each on its own pipelined
	// connection; rounds is how many sweeps each makes after the expiry
	// instant (only the first finds the keys cold).
	workers, rounds int
	mode            string
	// missingKeys are keys the backend does not have, probed round-robin
	// throughout the sweep.
	missingKeys int
	// oneHitWonders background get+set pairs of unique keys, and one
	// sequential write burst of burstScan keys.
	oneHitWonders, burstScan int
}

// The herd's fixed parameters.
const (
	herdValueBytes = 64
	// herdTTL is the hot-set warm TTL, the synchronized expiry horizon;
	// the wire rounds TTLs up to whole seconds.
	herdTTL = time.Second
	// herdGrace is the stale-while-revalidate window offered in lease
	// mode.
	herdGrace = 60 * time.Second
	// herdBackendDelay simulates the backend fetch latency: the window in
	// which the herd piles up.
	herdBackendDelay = 2 * time.Millisecond
	// herdPipelineDepth is each worker connection's in-flight window.
	herdPipelineDepth = 8
	// refillTTL is the TTL workers store refetched values with — long
	// enough that later rounds never see a second natural expiry.
	refillTTL = 10 * time.Minute
)

// herdResult is one mode's measurement.
type herdResult struct {
	// amplification is the headline number: backend fetches of hot keys
	// per unique hot key, after the synchronized expiry. 1.0 is perfect
	// coalescing; workers is the worst case.
	amplification float64
	hotFills      uint64
	hotLookups    uint64

	// missingProbes counts backend fetches for keys the backend does not
	// have; negative caching is what keeps it below missingLookups.
	missingProbes  uint64
	missingLookups uint64

	staleServed uint64 // server: grace-window serves
	leaseGrants uint64 // server: fill leases granted

	clientErrors uint64
	elapsed      time.Duration
}

// herdBackend is the simulated origin datastore: it has every hot key,
// none of the missing keys, and counts + delays every fetch.
type herdBackend struct {
	value    []byte
	hotFills atomic.Uint64
	misses   atomic.Uint64
}

// fetch simulates one backend read. Hot keys ("hot:...") resolve to the
// shared value; everything else is absent. Both cost the full delay —
// confirming absence is a real query too.
func (b *herdBackend) fetch(key string) ([]byte, bool) {
	time.Sleep(herdBackendDelay)
	if len(key) >= 4 && key[:4] == "hot:" {
		b.hotFills.Add(1)
		return b.value, true
	}
	b.misses.Add(1)
	return nil, false
}

// runHerd runs one thundering-herd measurement: start a server in the
// requested mode, warm the hot set with the shared TTL, wait out the
// expiry instant, then release the workers (and the background noise)
// simultaneously.
func runHerd(t *testing.T, cfg herdConfig) herdResult {
	t.Helper()
	entryBytes := 24 + herdValueBytes
	capacity := uint64(cfg.hotKeys+cfg.missingKeys+cfg.oneHitWonders+cfg.burstScan+1024) * uint64(entryBytes) * 2
	c, err := cache.New(cache.Config{MaxBytes: capacity})
	if err != nil {
		t.Fatal(err)
	}
	var opts []server.Option
	if cfg.mode != "off" {
		opts = append(opts, server.WithAntiStampede(server.AntiStampede{
			Coalesce: true,
			Grace:    herdGrace,
		}))
	}
	srv := server.New(c, opts...)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(l)
	addr := l.Addr().String()

	backend := &herdBackend{value: make([]byte, herdValueBytes)}
	hotKeys := make([]string, cfg.hotKeys)
	for i := range hotKeys {
		hotKeys[i] = fmt.Sprintf("hot:%06d", i)
	}

	clients := make([]*client.Client, cfg.workers)
	for i := range clients {
		cl, err := client.DialOptions(addr, client.Options{Pipeline: herdPipelineDepth})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
	}

	// Warm the hot set with the shared TTL: this is the mass Set (a
	// deploy, a cache flush refill) whose synchronized expiry causes the
	// herd. Warm fills come from the harness, not the backend — the
	// amplification count starts at zero.
	for _, key := range hotKeys {
		if _, err := clients[0].SetWithTTL(key, backend.value, herdTTL); err != nil {
			t.Fatal(err)
		}
	}
	// Sleep past the expiry instant (plus the wire's round-up) so the
	// first sweep finds every key cold at once.
	ttlSecs := (herdTTL + time.Second - 1) / time.Second * time.Second
	time.Sleep(ttlSecs + 50*time.Millisecond)

	var (
		res     herdResult
		errs    atomic.Uint64
		hotLook atomic.Uint64
		misLook atomic.Uint64
		start   = make(chan struct{})
		wg      sync.WaitGroup
		stop    = make(chan struct{})
	)

	// Background one-hit wonders: unique keys, written once, read once.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := clients[0]
		for i := 0; i < cfg.oneHitWonders; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("ohw:%06d", i)
			if _, err := cl.Set(key, backend.value); err != nil {
				errs.Add(1)
				return
			}
			if _, _, err := cl.Get(key); err != nil {
				errs.Add(1)
				return
			}
		}
	}()
	// Background burst scan: a sequential write burst mid-herd.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := clients[len(clients)-1]
		for i := 0; i < cfg.burstScan; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cl.Set(fmt.Sprintf("scan:%06d", i), backend.value); err != nil {
				errs.Add(1)
				return
			}
		}
	}()

	// The herd proper: every worker sweeps the hot set in the same order
	// starting at the same instant, interleaving missing-key probes.
	missingEvery := 0
	if cfg.missingKeys > 0 {
		missingEvery = max(cfg.hotKeys/cfg.missingKeys, 1)
	}
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			<-start
			for round := 0; round < cfg.rounds; round++ {
				for i, key := range hotKeys {
					hotLook.Add(1)
					if err := herdLookup(cl, cfg.mode, backend, key); err != nil {
						errs.Add(1)
					}
					if missingEvery > 0 && i%missingEvery == 0 {
						misLook.Add(1)
						missKey := fmt.Sprintf("none:%06d", (i/missingEvery)%cfg.missingKeys)
						if err := herdLookup(cl, cfg.mode, backend, missKey); err != nil {
							errs.Add(1)
						}
					}
				}
			}
		}(clients[w])
	}

	t0 := time.Now()
	close(start)
	wg.Wait()
	close(stop)
	res.elapsed = time.Since(t0)

	st, err := clients[0].ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	res.hotFills = backend.hotFills.Load()
	res.hotLookups = hotLook.Load()
	res.missingProbes = backend.misses.Load()
	res.missingLookups = misLook.Load()
	res.amplification = float64(res.hotFills) / float64(cfg.hotKeys)
	res.staleServed = st.StaleServed
	res.leaseGrants = st.LeaseGrants
	res.clientErrors = errs.Load()
	return res
}

// herdLookup is one cache-aside lookup in the given mode: serve from
// cache, else consult the backend and refill. This is the code a real
// client of each mode would run.
func herdLookup(cl *client.Client, mode string, backend *herdBackend, key string) error {
	if mode == "lease" {
		r, err := cl.GetX(key, herdGrace)
		if err != nil {
			return err
		}
		switch {
		case r.Found:
			return nil // fresh or stale-within-grace: served
		case r.Lease != 0:
			v, found := backend.fetch(key)
			if found {
				_, err = cl.SetX(key, r.Lease, v, refillTTL)
			} else {
				err = cl.SetXNegative(key, r.Lease, 0)
			}
			if errors.Is(err, client.ErrLeaseInvalid) {
				return nil // raced a delete or a newer holder: value dropped, not an error
			}
			return err
		default:
			// Bare miss: someone else holds the lease, or the key is
			// tombstoned. The whole point: do NOT touch the backend.
			return nil
		}
	}
	// off / coalesce: plain cache-aside. The server's coalescing (when
	// on) is transparent — parked misses come back as hits.
	_, ok, err := cl.Get(key)
	if err != nil || ok {
		return err
	}
	bv, found := backend.fetch(key)
	if !found {
		// Nothing to store: release any lookups parked on this miss (and
		// tell the cache to forget the key) the only way plain commands
		// can.
		_, err := cl.Delete(key)
		return err
	}
	_, err = cl.SetWithTTL(key, bv, refillTTL)
	return err
}

// TestHerdAmplification is the acceptance test for the anti-stampede
// stack: a 1000-key hot set expiring at one instant under 12 pipelined
// binary clients over real TCP. Naive serving must show the herd (every
// client refetches every key: amplification >= 10x); coalescing+leases
// must flatten it to nearly one backend fill per key (<= 1.2x), with
// zero client-visible errors in both modes.
func TestHerdAmplification(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size herd: waits out a real TTL expiry under load")
	}
	base := herdConfig{
		hotKeys:       1000,
		workers:       12,
		rounds:        1,
		missingKeys:   64,
		oneHitWonders: 1000,
		burstScan:     500,
	}

	off := base
	off.mode = "off"
	offRes := runHerd(t, off)
	t.Logf("off:   amplification %.2f (%d fills / %d keys), %d errors, %v",
		offRes.amplification, offRes.hotFills, base.hotKeys, offRes.clientErrors, offRes.elapsed)

	lease := base
	lease.mode = "lease"
	leaseRes := runHerd(t, lease)
	t.Logf("lease: amplification %.2f (%d fills / %d keys), %d stale served, %d errors, %v",
		leaseRes.amplification, leaseRes.hotFills, base.hotKeys,
		leaseRes.staleServed, leaseRes.clientErrors, leaseRes.elapsed)

	if offRes.clientErrors != 0 || leaseRes.clientErrors != 0 {
		t.Fatalf("client errors: off=%d lease=%d, want zero in both modes",
			offRes.clientErrors, leaseRes.clientErrors)
	}
	if offRes.amplification < 10 {
		t.Fatalf("off-mode amplification %.2f < 10x: the naive herd never formed (12 lockstep workers)",
			offRes.amplification)
	}
	if leaseRes.amplification > 1.2 {
		t.Fatalf("lease-mode amplification %.2f > 1.2x: coalescing+leases failed to absorb the herd",
			leaseRes.amplification)
	}
}

// TestHerdSmallRun is the CI-sized herd smoke: a small synchronized
// expiry driven through real TCP in every mode. It asserts the direction
// of the result (coalescing and leases strictly reduce backend fill
// amplification, nobody sees an error), leaving the full-size ratio assertions to
// TestHerdAmplification. The coalesce run is the one test that drives
// server-side coalescing of plain GETs over TCP.
func TestHerdSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("herd smoke waits out a real TTL expiry")
	}
	base := herdConfig{
		hotKeys:       64,
		workers:       4,
		rounds:        1,
		missingKeys:   8,
		oneHitWonders: 50,
		burstScan:     50,
	}

	res := map[string]herdResult{}
	for _, mode := range []string{"off", "coalesce", "lease"} {
		cfg := base
		cfg.mode = mode
		r := runHerd(t, cfg)
		t.Logf("%-8s amplification %.2f, %d errors", mode, r.amplification, r.clientErrors)
		if r.clientErrors != 0 {
			t.Fatalf("mode %s: %d client errors", mode, r.clientErrors)
		}
		if r.hotLookups == 0 {
			t.Fatalf("mode %s: no hot lookups recorded", mode)
		}
		res[mode] = r
	}
	offRes, leaseRes := res["off"], res["lease"]
	if offRes.amplification < 1 {
		t.Fatalf("off-mode amplification %.2f < 1: the herd never formed", offRes.amplification)
	}
	if co := res["coalesce"].amplification; co >= offRes.amplification {
		t.Fatalf("coalesce amplification %.2f did not improve on off %.2f", co, offRes.amplification)
	}
	if leaseRes.amplification >= offRes.amplification {
		t.Fatalf("lease amplification %.2f did not improve on off %.2f",
			leaseRes.amplification, offRes.amplification)
	}
	if leaseRes.leaseGrants == 0 {
		t.Fatalf("lease mode granted no leases")
	}
	if leaseRes.missingProbes >= leaseRes.missingLookups && leaseRes.missingLookups > 8 {
		t.Fatalf("negative caching absorbed nothing: %d probes for %d missing lookups",
			leaseRes.missingProbes, leaseRes.missingLookups)
	}
}
