package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"time"
)

// ladderOps is how many requests of the stream the rungs replay for each
// second the run is asked to measure: a million at the 24 s BENCHMARK.json
// asks for, fewer where a request moves kilobytes through a tier. The
// count is a function of the arguments alone, so the engine's miss ratio
// and eviction counts repeat exactly.
func (w *workload) ladderOps(seconds float64) int {
	return int(seconds * float64(w.ladderRate))
}

// traced fills rf from a --trace 1 run: the layer ladder, then the served
// (or embedded) system once more with spans around the client's calls, GC
// tracing on, and the open loop at both frozen rates.
func (l layout) traced(w *workload, s *stream, seconds float64, rf *resultFile) error {
	calibrateClock()
	m := map[string]float64{}
	var total counts
	n := w.ladderOps(seconds)
	tally := func(rung string, done counts) {
		if done.fail.total() > 0 {
			rf.Invalid = append(rf.Invalid, fmt.Sprintf("%s rung: %d of %d requests failed: %+v", rung, done.fail.total(), done.done, done.fail))
		}
		total.add(done)
	}
	t := newTracer(keepRequests, 16*keepRequests)

	// The whole system first, while this process is as fresh as the timed
	// run's is.
	phase := time.Duration(seconds / 8 * float64(time.Second))
	done, err := l.tracedSystem(w, s, phase, t, m, rf)
	if err != nil {
		return err
	}
	tally("system", done)

	protoRung(w, s, t, n, m)

	done, enginePer, loadgenPer := engineRung(w, s, t, n, m)
	tally("engine", done)
	m["engine.mt_scaling"] = mtScaling(w, s, n)

	done, cachePer, err := l.cacheRung(w, s, t, n, m)
	if err != nil {
		return fmt.Errorf("cache rung: %w", err)
	}
	tally("cache", done)
	m["cache.facade_self_ns"] = cachePer - enginePer
	for name, cfg := range map[string][2]string{
		"cache.concurrent_get_hit_ns":    {"concurrent", ""},
		"cache.policy_s3fifo_get_hit_ns": {"policy", "s3fifo"},
		"cache.policy_lru_get_hit_ns":    {"policy", "lru"},
	} {
		if m[name], err = hitCost(w, s, cfg[0], cfg[1]); err != nil {
			return fmt.Errorf("cache rung: %w", err)
		}
	}

	if done, err = l.tierRungs(w, s, t, n/4, m); err != nil {
		return fmt.Errorf("tier rungs: %w", err)
	}
	tally("tier", done)

	done, serverPer, err := l.serverRung(w, s, t, n, m)
	if err != nil {
		return fmt.Errorf("server rung: %w", err)
	}
	tally("server", done)
	m["server.self_ns"] = serverPer - cachePer

	done, clientPer, err := l.clientRung(w, s, t, n, m)
	if err != nil {
		return fmt.Errorf("client rung: %w", err)
	}
	tally("client", done)
	// The client rung is a whole process's CPU time, generator included;
	// the rungs below are spans that leave the generator out.
	m["client.self_ns"] = clientPer - serverPer - loadgenPer

	if done, err = clusterRung(w, s, phase/2, m); err != nil {
		return fmt.Errorf("cluster rung: %w", err)
	}
	tally("cluster", done)

	// The ladder's sum is the CPU time of a request at the top rung the
	// workload really has: the client over loopback for the served ones,
	// the facade for embedded-churn.
	sum := loadgenPer + cachePer
	if !w.embedded {
		sum = clientPer
	}
	m["ladder.sum_cpu_us_per_op"] = sum / 1e3

	m["ladder.residual_pct"] = 100 * (m["ladder.sum_cpu_us_per_op"] - m["ladder.timed_cpu_us_per_op"]) / m["ladder.timed_cpu_us_per_op"]

	if err := os.MkdirAll(l.outDir(), 0o755); err != nil {
		return err
	}
	if err := t.write(filepath.Join(l.outDir(), "trace-"+w.name+".jsonl")); err != nil {
		return err
	}
	rf.Result = makeResult(perLayer, m, total)
	return nil
}

// keepRequests is how many requests' spans each rung leaves in the trace
// file; every span is aggregated.
const keepRequests = 10_000

// gcLine matches what GODEBUG=gctrace=1 prints per cycle:
//
//	gc 7 @1.234s 2%: 0.011+1.3+0.004 ms clock, ...
var gcLine = regexp.MustCompile(`(?m)^gc \d+ @([\d.]+)s (\d+)%: ([\d.]+)\+[\d.]+\+([\d.]+) ms clock`)

// gcStats are the collector's doings over a stretch of a process's life.
type gcStats struct {
	cycles   int
	cpuPct   float64 // of the process's CPU time since it started
	pauseMax float64 // us, the longest stop-the-world pause
}

// parseGCTrace reads a gctrace log, counting the cycles that began at or
// after `from` seconds into the process's life.
func parseGCTrace(log []byte, from float64) gcStats {
	var g gcStats
	for _, f := range gcLine.FindAllSubmatch(log, -1) {
		at, _ := strconv.ParseFloat(string(f[1]), 64)
		if at < from {
			continue
		}
		g.cycles++
		g.cpuPct, _ = strconv.ParseFloat(string(f[2]), 64)
		sweep, _ := strconv.ParseFloat(string(f[3]), 64)
		mark, _ := strconv.ParseFloat(string(f[4]), 64)
		g.pauseMax = max(g.pauseMax, sweep*1e3, mark*1e3)
	}
	return g
}

// ownGC is the collector's doings in this process since `since`.
func ownGC(since *runtime.MemStats) gcStats {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	g := gcStats{cycles: int(now.NumGC - since.NumGC), cpuPct: 100 * now.GCCPUFraction}
	for i := since.NumGC; i < now.NumGC && i < since.NumGC+uint32(len(now.PauseNs)); i++ {
		g.pauseMax = max(g.pauseMax, float64(now.PauseNs[i%uint32(len(now.PauseNs))])/1e3)
	}
	return g
}

// tierCounters are the second tier's counters as the cache reports them.
type tierCounters struct {
	hits, tierHits, demotions, promotions, written, errors uint64
}

func (s *system) tierCounters() (tierCounters, error) {
	if s.child == nil {
		st := s.cache.Stats()
		return tierCounters{st.Hits, st.FlashHits, st.Demotions, st.Promotions, st.FlashBytesWritten, st.FlashErrors}, nil
	}
	st, err := s.clients[0].ServerStats()
	return tierCounters{st.Hits, st.FlashHits, st.Demotions, st.Promotions, st.FlashBytesWritten, st.FlashErrors}, err
}

// tracedSystem sets the workload up as the timed run does, with the
// child's GC trace on, and runs four phases: the closed loop untraced, the
// closed loop with a span around every client call (the difference is the
// tracing overhead), and the open loop at mid and at high.
func (l layout) tracedSystem(w *workload, s *stream, phase time.Duration, t *tracer, m map[string]float64, rf *resultFile) (counts, error) {
	sys, _, err := l.setUp(w, s, true)
	if err != nil {
		return counts{}, fmt.Errorf("set-up: %w", err)
	}
	defer sys.close()
	started := time.Since(sys.born).Seconds()
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	tier0, err := sys.tierCounters()
	if err != nil {
		return counts{}, err
	}
	sw0, err := ctxSwitches(sys.hostPID())
	if err != nil {
		return counts{}, err
	}

	// The closed loop, plain and with every client call inside a span,
	// turn about, so that drift over the phase falls on both alike.
	tracers := make([]*tracer, len(sys.vcs))
	spanned := make([]store, len(sys.vcs))
	for i := range spanned {
		tracers[i] = newTracer(keepRequests, 2*keepRequests/len(sys.vcs))
		spanned[i] = &spanStore{inner: sys.stores[i], t: tracers[i], layer: layerClient, vc: sys.vcs[i], base: sys.vcs[i].pos}
	}
	var plain, withSpans closedPhase
	for i := 0; i < 2*windows; i++ {
		p, stores := &withSpans, spanned // first, so the spans kept are the phase's first requests
		if i%2 == 1 {
			p, stores = &plain, sys.stores
		}
		st, err := sys.closedStretch(2*phase/(2*windows), stores, nil)
		if err != nil {
			return counts{}, err
		}
		p.add(st)
	}
	for _, ct := range tracers {
		t.absorb(ct)
	}
	sw1, err := ctxSwitches(sys.hostPID())
	if err != nil {
		return counts{}, err
	}
	tier1, err := sys.tierCounters()
	if err != nil {
		return counts{}, err
	}

	mid := sys.runOpen(w.mid, phase)
	high := sys.runOpen(w.high, phase)

	kop := float64(plain.done+withSpans.done) / 1e3
	m["trace.overhead_pct"] = 100 * (plain.kops() - withSpans.kops()) / plain.kops()
	m["client.cpu_us_per_op"] = plain.genUsPerOp()
	m["ladder.timed_cpu_us_per_op"] = plain.cpuUsPerOp()
	if sys.child != nil {
		m["ladder.timed_cpu_us_per_op"] += plain.genUsPerOp()
	}
	m["runtime.ctx_switches_per_kop"] = float64(sw1-sw0) / kop
	m["tier.hit_share"] = ratio(tier1.tierHits-tier0.tierHits, tier1.hits-tier0.hits)
	m["tier.demotions_per_kop"] = float64(tier1.demotions-tier0.demotions) / kop
	m["tier.promotions_per_kop"] = float64(tier1.promotions-tier0.promotions) / kop
	m["tier.write_amp"] = ratio(tier1.written-tier0.written, plain.userBytes+withSpans.userBytes)

	var gc gcStats
	if sys.child != nil {
		log, err := os.ReadFile(sys.child.stderr.Name())
		if err != nil {
			return counts{}, err
		}
		gc = parseGCTrace(log, started)
	} else {
		gc = ownGC(&mem0)
	}
	m["runtime.gc_cycles"] = float64(gc.cycles)
	m["runtime.gc_cpu_pct"] = gc.cpuPct
	m["runtime.gc_pause_max_us"] = gc.pauseMax
	tierEnd, err := sys.tierCounters()
	if err != nil {
		return counts{}, err
	}
	m["tier.errors"] = float64(tierEnd.errors)

	// Whole-phase percentiles: diagnostics, and the phases are short.
	for name, p := range map[string]struct {
		from [][]int64
		q    float64
	}{"runtime.get_p999_us": {mid.get, 0.999}, "loadgen.get_p90_us": {mid.get, 0.90}, "loadgen.get_p99_us": {mid.get, 0.99},
		"loadgen.set_p99_us": {mid.set, 0.99}, "loadgen.get_p99_high_us": {high.get, 0.99}} {
		if v, ok := percentile(merged(p.from), p.q); ok {
			m[name] = float64(v) / 1e3
		}
	}
	m["loadgen.max_lag_us"] = float64(mid.maxLag) / 1e3
	m["loadgen.achieved_over_offered"] = float64(mid.achieved) / float64(mid.offered)
	if !mid.valid() {
		rf.Invalid = append(rf.Invalid, mid.why("mid"))
	}
	if !high.valid() {
		rf.Invalid = append(rf.Invalid, high.why("high"))
	}
	all := snapshot(sys.vcs).sub(sys.mark)
	m["loadgen.fail_ratio"] = float64(all.fail.total()) / float64(all.done)
	return all, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
