package harness

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/internal/server"
)

// Herd measures the thundering-herd failure mode the anti-stampede
// machinery (DESIGN.md §14) exists to prevent: a hot set of keys warmed
// with one shared TTL so every copy expires at the same instant, then a
// fleet of workers sweeping that hot set — every one of them finding
// every key missing at once. The metric is backend fill amplification:
// how many times the simulated backend is fetched per unique hot key.
// A perfectly coalesced cache refetches each key once (amplification
// 1.0); a naive cache refetches it once per concurrent client.
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
// Alongside the hot sweep the harness runs the background traffic that
// makes the cache realistic rather than a single-purpose rig: a
// one-hit-wonder stream (unique keys, read once — the S3-FIFO small
// queue's prey) and periodic burst scans, plus a stream of lookups for
// keys the backend does not have, which is what negative caching is
// for.
type HerdConfig struct {
	// HotKeys is the size of the synchronized-expiry hot set (default 1000).
	HotKeys int
	// Workers is the number of concurrent clients sweeping the hot set,
	// each on its own pipelined binary connection (default 8).
	Workers int
	// Rounds is how many times each worker sweeps the hot set after the
	// expiry instant (default 2; only the first sweep finds the keys
	// cold, later sweeps verify the refill actually took).
	Rounds int
	// Mode is "off", "coalesce", or "lease" (default "off").
	Mode string
	// MissingKeys is the number of distinct keys the backend does not
	// have, probed round-robin throughout the sweep (default 64).
	MissingKeys int
	// OneHitWonders is the number of background unique-key get+set pairs
	// (default 1000). BurstScan is the number of keys in each periodic
	// sequential scan burst (default 500).
	OneHitWonders int
	BurstScan     int
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
)

func (c HerdConfig) withDefaults() HerdConfig {
	if c.HotKeys <= 0 {
		c.HotKeys = 1000
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Rounds <= 0 {
		c.Rounds = 2
	}
	if c.Mode == "" {
		c.Mode = "off"
	}
	if c.MissingKeys < 0 {
		c.MissingKeys = 0
	} else if c.MissingKeys == 0 {
		c.MissingKeys = 64
	}
	if c.OneHitWonders < 0 {
		c.OneHitWonders = 0
	} else if c.OneHitWonders == 0 {
		c.OneHitWonders = 1000
	}
	if c.BurstScan < 0 {
		c.BurstScan = 0
	} else if c.BurstScan == 0 {
		c.BurstScan = 500
	}
	return c
}

// HerdResult is one mode's measurement.
type HerdResult struct {
	Mode    string
	HotKeys int
	Workers int

	// Amplification is the headline number: backend fetches of hot keys
	// per unique hot key, after the synchronized expiry. 1.0 is perfect
	// coalescing; Workers is the worst case.
	Amplification float64
	HotFills      uint64
	HotLookups    uint64

	// MissingProbes counts backend fetches for keys the backend does not
	// have; negative caching is what keeps it below MissingLookups.
	MissingProbes  uint64
	MissingLookups uint64

	StaleServed uint64 // server: grace-window serves
	LeaseGrants uint64 // server: fill leases granted

	ClientErrors uint64
	Elapsed      time.Duration
}

// herdBackend is the simulated origin datastore: it has every hot key,
// none of the missing keys, and counts + delays every fetch.
type herdBackend struct {
	value    []byte
	delay    time.Duration
	hotFills atomic.Uint64
	misses   atomic.Uint64
}

// fetch simulates one backend read. Hot keys ("hot:...") resolve to the
// shared value; everything else is absent. Both cost the full delay —
// confirming absence is a real query too.
func (b *herdBackend) fetch(key string) ([]byte, bool) {
	time.Sleep(b.delay)
	if len(key) >= 4 && key[:4] == "hot:" {
		b.hotFills.Add(1)
		return b.value, true
	}
	b.misses.Add(1)
	return nil, false
}

// refillTTL is the TTL workers store refetched values with — long
// enough that later rounds and modes never see a second natural expiry.
const refillTTL = 10 * time.Minute

// Herd runs one thundering-herd measurement: start a server in the
// requested mode, warm the hot set with the shared TTL, wait out the
// expiry instant, then release the workers (and the background noise)
// simultaneously.
func Herd(cfg HerdConfig) (HerdResult, error) {
	cfg = cfg.withDefaults()
	switch cfg.Mode {
	case "off", "coalesce", "lease":
	default:
		return HerdResult{}, fmt.Errorf("harness: unknown herd mode %q (want off, coalesce, or lease)", cfg.Mode)
	}

	entryBytes := 24 + herdValueBytes
	capacity := uint64(cfg.HotKeys+cfg.MissingKeys+cfg.OneHitWonders+cfg.BurstScan+1024) * uint64(entryBytes) * 2
	c, err := cache.New(cache.Config{MaxBytes: capacity})
	if err != nil {
		return HerdResult{}, err
	}
	var opts []server.Option
	if cfg.Mode != "off" {
		opts = append(opts, server.WithAntiStampede(server.AntiStampede{
			Coalesce: true,
			Grace:    herdGrace,
		}))
	}
	srv := server.New(c, opts...)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return HerdResult{}, err
	}
	defer srv.Close()
	go srv.Serve(l)
	addr := l.Addr().String()

	backend := &herdBackend{value: make([]byte, herdValueBytes), delay: herdBackendDelay}
	hotKeys := make([]string, cfg.HotKeys)
	for i := range hotKeys {
		hotKeys[i] = fmt.Sprintf("hot:%06d", i)
	}

	clients := make([]*client.Client, cfg.Workers)
	for i := range clients {
		cl, err := client.DialOptions(addr, client.Options{Pipeline: herdPipelineDepth})
		if err != nil {
			return HerdResult{}, err
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
			return HerdResult{}, err
		}
	}
	// Sleep past the expiry instant (plus the wire's round-up) so the
	// first sweep finds every key cold at once.
	ttlSecs := (herdTTL + time.Second - 1) / time.Second * time.Second
	time.Sleep(ttlSecs + 50*time.Millisecond)

	var (
		res     HerdResult
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
		for i := 0; i < cfg.OneHitWonders; i++ {
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
		for i := 0; i < cfg.BurstScan; i++ {
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
	if cfg.MissingKeys > 0 {
		missingEvery = cfg.HotKeys / cfg.MissingKeys
		if missingEvery == 0 {
			missingEvery = 1
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			<-start
			for round := 0; round < cfg.Rounds; round++ {
				for i, key := range hotKeys {
					hotLook.Add(1)
					if err := herdLookup(cl, cfg, backend, key); err != nil {
						errs.Add(1)
					}
					if missingEvery > 0 && i%missingEvery == 0 {
						misLook.Add(1)
						missKey := fmt.Sprintf("none:%06d", (i/missingEvery)%cfg.MissingKeys)
						if err := herdLookup(cl, cfg, backend, missKey); err != nil {
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
	res.Elapsed = time.Since(t0)

	st, err := clients[0].ServerStats()
	if err != nil {
		return HerdResult{}, err
	}
	res.Mode = cfg.Mode
	res.HotKeys = cfg.HotKeys
	res.Workers = cfg.Workers
	res.HotFills = backend.hotFills.Load()
	res.HotLookups = hotLook.Load()
	res.MissingProbes = backend.misses.Load()
	res.MissingLookups = misLook.Load()
	res.Amplification = float64(res.HotFills) / float64(cfg.HotKeys)
	res.StaleServed = st.StaleServed
	res.LeaseGrants = st.LeaseGrants
	res.ClientErrors = errs.Load()
	return res, nil
}

// herdLookup is one cache-aside lookup in the configured mode: serve
// from cache, else consult the backend and refill. This is the code a
// real client of each mode would run.
func herdLookup(cl *client.Client, cfg HerdConfig, backend *herdBackend, key string) error {
	if cfg.Mode == "lease" {
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
	v, ok, err := cl.Get(key)
	if err != nil {
		return err
	}
	if ok {
		_ = v
		return nil
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
