package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"s3fifo/cache"
	"s3fifo/client"
)

// setups is how many times a run sets the system up; setup_s is their
// median and the last one is measured.
const setups = 3

// clientStore adapts the network client to the store interface.
type clientStore struct{ c remote }

func (s clientStore) Get(key string) ([]byte, bool, error) { return s.c.Get(key) }
func (s clientStore) Set(key string, v []byte, ttl time.Duration) (bool, error) {
	return s.c.SetWithTTL(key, v, ttl)
}
func (s clientStore) Delete(key string) (bool, error) { return s.c.Delete(key) }

// cacheStore adapts the in-process facade.
type cacheStore struct{ c *cache.Cache }

func (s cacheStore) Get(key string) ([]byte, bool, error) {
	v, ok := s.c.Get(key)
	return v, ok, nil
}
func (s cacheStore) Set(key string, v []byte, ttl time.Duration) (bool, error) {
	return s.c.SetWithTTL(key, v, ttl), nil
}
func (s cacheStore) Delete(key string) (bool, error) {
	s.c.Delete(key)
	return true, nil
}

// system is a set-up instance of what a workload measures: the cache
// (child process or in-process facade), warmed, with the virtual clients
// that own its contents.
type system struct {
	w       *workload
	born    time.Time // when set-up began: the child's clock starts about then
	child   *child    // nil for embedded-churn
	clients []*client.Client
	cache   *cache.Cache
	vcs     []*vclient
	stores  []store
	// mark is the clients' counts when set-up ended: what the run is
	// judged on is everything since.
	mark counts
}

// hostPID is the process whose CPU and memory the workload charges.
func (s *system) hostPID() int {
	if s.child != nil {
		return s.child.pid()
	}
	return syscall.Getpid()
}

func (s *system) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.child != nil {
		s.child.stop()
	}
	if s.cache != nil {
		s.cache.Close()
	}
}

// parallelN runs fn(0..n-1) at once and waits.
func parallelN(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// parallel runs fn for every client at once and waits.
func parallel(vcs []*vclient, fn func(i int, c *vclient)) {
	parallelN(len(vcs), func(i int) { fn(i, vcs[i]) })
}

// setUp starts the workload's cache, populates and warms it, and reports
// how long that took. Rendering the clients' keys is the generator's own
// preparation and is not counted.
func (l layout) setUp(w *workload, s *stream, gctrace bool) (*system, time.Duration, error) {
	start := time.Now()
	sys := &system{w: w, born: start, vcs: newVClients(w, s, w.embedded), stores: make([]store, w.clients)}
	if w.embedded {
		c, err := cache.New(cache.Config{MaxBytes: w.maxBytes, Engine: w.engine})
		if err != nil {
			return nil, 0, err
		}
		sys.cache = c
		for i := range sys.stores {
			sys.stores[i] = cacheStore{c}
		}
	} else {
		ch, err := l.startChild(w, gctrace)
		if err != nil {
			return nil, 0, err
		}
		sys.child = ch
		if sys.clients, err = dial(ch.addr); err != nil {
			sys.close()
			return nil, 0, err
		}
		for i := range sys.stores {
			sys.stores[i] = clientStore{sys.clients[i/window]}
		}
	}
	parallel(sys.vcs, func(i int, c *vclient) {
		c.populate(sys.stores[i])
		for n := 0; n < w.warmOps; n++ {
			c.step(sys.stores[i], 0, nil)
		}
	})
	took := time.Since(start)
	sys.mark = snapshot(sys.vcs)
	return sys, took, nil
}

// selfCPU is the benchmark process's own user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostCPU is the CPU the cache's host process has used so far.
func (s *system) hostCPU() (float64, error) {
	if s.child == nil {
		return selfCPU(), nil
	}
	return procCPU(s.child.pid())
}

// stretch is one uninterrupted run of the closed loop.
type stretch struct {
	counts
	elapsed time.Duration
	hostCPU float64 // CPU seconds of the process hosting the cache
	genCPU  float64 // CPU seconds of the benchmark process
}

// closedPhase is the outcome of a closed-loop phase: `windows` stretches
// back to back. Rates are the median over the stretches, so that a
// disturbed second moves one stretch and not the figure; counts are totals.
type closedPhase struct {
	counts
	stretches []stretch
	statsMiss float64 // the server's own miss ratio over the phase; -1 when embedded
	lat       []*lats
}

func (p closedPhase) median(of func(stretch) float64) float64 {
	v := make([]float64, len(p.stretches))
	for i, st := range p.stretches {
		v[i] = of(st)
	}
	return median(v)
}

func (p closedPhase) kops() float64 {
	return p.median(func(st stretch) float64 { return float64(st.done) / st.elapsed.Seconds() / 1e3 })
}
func (p closedPhase) cpuUsPerOp() float64 {
	return p.median(func(st stretch) float64 { return st.hostCPU * 1e6 / float64(st.done) })
}
func (p closedPhase) genUsPerOp() float64 {
	return p.median(func(st stretch) float64 { return st.genCPU * 1e6 / float64(st.done) })
}
func (p closedPhase) missRatio() float64 { return float64(p.misses) / float64(p.gets) }
func (p closedPhase) statsAgree() bool   { return p.statsMiss < 0 || p.statsMiss == p.missRatio() }

// add appends a stretch to the phase.
func (p *closedPhase) add(st stretch) {
	p.stretches = append(p.stretches, st)
	p.counts.add(st.counts)
}

// closedStretch drives the closed loop through stores for d.
func (s *system) closedStretch(d time.Duration, stores []store, lat []*lats) (stretch, error) {
	var st stretch
	before := snapshot(s.vcs)
	host0, err := s.hostCPU()
	if err != nil {
		return st, err
	}
	gen0 := selfCPU()
	st.elapsed = closedLoop(s.vcs, stores, d, lat)
	st.genCPU = selfCPU() - gen0
	host1, err := s.hostCPU()
	if err != nil {
		return st, err
	}
	st.hostCPU = host1 - host0
	st.counts = snapshot(s.vcs).sub(before)
	if st.done == 0 || st.gets == 0 {
		return st, fmt.Errorf("closed loop of %v completed %d ops, %d GETs", d, st.done, st.gets)
	}
	return st, nil
}

// runClosed drives the closed loop for d. sample turns the 1-in-64 call
// timing on (embedded-churn's latency figures come from it).
func (s *system) runClosed(d time.Duration, sample bool) (closedPhase, error) {
	var p closedPhase
	if sample {
		p.lat = make([]*lats, len(s.vcs))
		for i := range p.lat {
			// Room for 2M ops/s per client, several times what the engine does.
			p.lat[i] = newLats(int(d.Seconds()*2e6/64) + 1024)
		}
	}
	var st0 client.ServerStats
	var err error
	if s.child != nil {
		if st0, err = s.clients[0].ServerStats(); err != nil {
			return p, fmt.Errorf("stats before closed loop: %w", err)
		}
	}
	for i := 0; i < windows; i++ {
		st, err := s.closedStretch(d/windows, s.stores, p.lat)
		if err != nil {
			return p, err
		}
		p.add(st)
	}
	p.statsMiss = -1
	if s.child != nil {
		st1, err := s.clients[0].ServerStats()
		if err != nil {
			return p, fmt.Errorf("stats after closed loop: %w", err)
		}
		hits, misses := st1.Hits-st0.Hits, st1.Misses-st0.Misses
		p.statsMiss = float64(misses) / float64(hits+misses)
	}
	return p, nil
}

// openPhase is the outcome of an open-loop phase.
type openPhase struct {
	openResult
	counts
	get, set [][]int64 // per client, in order: latencies in ns from the scheduled send
	dropped  uint64
}

func (s *system) runOpen(rate float64, d time.Duration) openPhase {
	ls := make([]*lats, len(s.vcs))
	perClient := int(rate*d.Seconds()*1.01)/len(s.vcs) + 1024 // the schedule rounds its period down
	for i := range ls {
		ls[i] = newLats(perClient)
	}
	before := snapshot(s.vcs)
	// In this process there is no reply to sleep through and the gaps are
	// microseconds: the embedded clients spin until each op is due.
	p := openPhase{openResult: openLoop(s.vcs, s.stores, rate, d, ls, s.child == nil)}
	p.counts = snapshot(s.vcs).sub(before)
	p.get, p.set, p.dropped = collect(ls)
	return p
}

// collect gathers the clients' samples, each client's in order.
func collect(ls []*lats) (get, set [][]int64, dropped uint64) {
	for _, l := range ls {
		get, set = append(get, l.get), append(set, l.set)
		dropped += l.dropped
	}
	return get, set, dropped
}

// valid is the generator's verdict on its own phase: it kept to the
// schedule closely enough for the latencies to be the system's.
func (p openPhase) valid() bool {
	return float64(p.achieved) >= 0.98*float64(p.offered) &&
		float64(p.late) <= 0.01*float64(p.offered) && p.dropped == 0
}

// why says how a phase that is not valid() missed its schedule.
func (p openPhase) why(rate string) string {
	return fmt.Sprintf("open loop at %s did not keep its schedule: achieved %d of %d, %d sent >1 ms late, max lag %d us, %d samples did not fit",
		rate, p.achieved, p.offered, p.late, p.maxLag/1000, p.dropped)
}

// timed is everything a --trace 0 run measures.
type timed struct {
	setupS  float64
	closed  closedPhase
	mid     openPhase // served workloads only
	get     [][]int64 // the latencies the end-to-end percentiles come from
	set     [][]int64
	rssMB   float64
	total   counts // everything since set-up: the attempted and failed counts
	invalid []string
}

// runTimed sets the workload up `setups` times and measures the last
// instance for `seconds`: half closed loop and half open loop at mid for
// the served workloads, all closed loop (call durations sampled) for the
// embedded one.
func (l layout) runTimed(w *workload, s *stream, seconds float64) (*timed, error) {
	var t timed
	var sys *system
	var took []float64
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
			// The embedded cache just dropped is garbage in this process:
			// return it before the next instance is built, or rss_mb would
			// measure the benchmark's own leftovers.
			runtime.GC()
			debug.FreeOSMemory()
		}
		var d time.Duration
		var err error
		if sys, d, err = l.setUp(w, s, false); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		took = append(took, d.Seconds())
	}
	defer sys.close()
	t.setupS = median(took)

	total := time.Duration(seconds * float64(time.Second))
	var err error
	if w.embedded {
		if t.closed, err = sys.runClosed(total, true); err != nil {
			return nil, err
		}
		var dropped uint64
		if t.get, t.set, dropped = collect(t.closed.lat); dropped > 0 {
			t.invalid = append(t.invalid, fmt.Sprintf("%d latency samples did not fit", dropped))
		}
	} else {
		if t.closed, err = sys.runClosed(total/2, false); err != nil {
			return nil, err
		}
		t.mid = sys.runOpen(w.mid, total/2)
		t.get, t.set = t.mid.get, t.mid.set
		if !t.mid.valid() {
			t.invalid = append(t.invalid, t.mid.why("mid"))
		}
	}
	if !t.closed.statsAgree() {
		t.invalid = append(t.invalid, fmt.Sprintf("generator counted miss ratio %v, server stats say %v",
			t.closed.missRatio(), t.closed.statsMiss))
	}
	if t.rssMB, err = peakRSSMB(sys.hostPID()); err != nil {
		return nil, err
	}
	t.total = snapshot(sys.vcs).sub(sys.mark)
	return &t, nil
}
