package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// goldenStreams pins every workload's request stream at seed 1: a change
// to a generator, to a workload's shape or to the op encoding moves the
// benchmark's inputs and must show up here.
var goldenStreams = map[string]string{
	"served-hot":      "e9e0d0b4531e291c",
	"embedded-churn":  "af0981983fbefbc8",
	"served-tiered":   "3ee5a85cc0ac2145",
	"served-mixed-rw": "9a4af28012f7cd33",
}

func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		one := fmt.Sprintf("%016x", w.build(1).hash())
		if again := fmt.Sprintf("%016x", w.build(1).hash()); again != one {
			t.Errorf("%s: seed 1 gave %s, then %s", w.name, one, again)
		}
		if one != goldenStreams[w.name] {
			t.Errorf("%s: seed 1 gives stream %s, golden is %s", w.name, one, goldenStreams[w.name])
		}
		if two := fmt.Sprintf("%016x", w.build(2).hash()); two == one {
			t.Errorf("%s: seeds 1 and 2 give the same stream %s", w.name, one)
		}
	}
}

// The churn stream must keep the shapes it is named for.
func TestChurnShapes(t *testing.T) {
	w, _ := workloadByName("embedded-churn")
	s := w.build(1)
	ops := s.clients[0]
	bounded := uint32(s.bounded)
	hot, loop := uint32(w.churn.hot), uint32(w.churn.loop)
	var unique, scanRun, longestScan int
	seen := map[uint32]bool{}
	for i, o := range ops {
		if o.kind() != opGetFill {
			t.Fatalf("op %d is %d, want look-aside GETs only", i, o.kind())
		}
		l := o.local()
		switch {
		case l >= bounded:
			if seen[l] {
				t.Fatalf("unique id %d used twice in one lap", l)
			}
			seen[l] = true
			unique++
		case l >= hot+loop && i > 0 && l == ops[i-1].local()+1:
			scanRun++
			longestScan = max(longestScan, scanRun)
			continue
		}
		scanRun = 0
	}
	if share := float64(unique) / float64(len(ops)); share < 0.2 || share > 0.3 {
		t.Errorf("unique ids are %.3f of the stream, want the one-hit-wonder mix's and the pollution's ~0.25", share)
	}
	if longestScan < 400 {
		t.Errorf("longest run of consecutive cold keys is %d, want the 500-key burst scan", longestScan)
	}
	// Laps are re-based by uniques: it may not be less than what a lap uses.
	if uint32(unique) > s.uniques[0] {
		t.Errorf("stream says %d unique ids a lap, counted %d", s.uniques[0], unique)
	}
	// A second lap must not reuse the first lap's unique ids.
	k1, _, _ := s.key(0, bounded, 0)
	k2, _, _ := s.key(0, bounded, 1)
	if k1 == k2 {
		t.Errorf("unique id %d renders to %q on laps 0 and 1", bounded, k1)
	}
}

// liar is a store that is correct until told to lie in one way.
type liar struct {
	data map[string][]byte
	old  map[string][]byte // the value each key held before its latest SET

	stale     bool // serve the previous version
	undelete  bool // serve after DELETE
	corrupt   bool // flip a payload bit
	crossWire bool // serve another key's value
	refuse    bool // fail every call

	expires map[string]time.Time
	deleted map[string][]byte
}

func newLiar() *liar {
	return &liar{data: map[string][]byte{}, old: map[string][]byte{}, expires: map[string]time.Time{}, deleted: map[string][]byte{}}
}

func (l *liar) Get(key string) ([]byte, bool, error) {
	if l.refuse {
		return nil, false, errors.New("refused")
	}
	if exp, ok := l.expires[key]; ok && time.Now().After(exp) {
		delete(l.data, key)
	}
	v, ok := l.data[key]
	switch {
	case l.stale && l.old[key] != nil:
		return l.old[key], true, nil
	case l.undelete && !ok && l.deleted[key] != nil:
		return l.deleted[key], true, nil
	case !ok:
		return nil, false, nil
	case l.corrupt:
		v = append([]byte(nil), v...)
		v[valueHeader] ^= 1
	case l.crossWire:
		for other, ov := range l.data {
			if other != key {
				return ov, true, nil
			}
		}
	}
	return v, true, nil
}

func (l *liar) Set(key string, v []byte, ttl time.Duration) (bool, error) {
	if l.refuse {
		return false, errors.New("refused")
	}
	if cur, ok := l.data[key]; ok {
		l.old[key] = cur
	}
	l.data[key] = append([]byte(nil), v...)
	delete(l.expires, key)
	delete(l.deleted, key)
	if ttl > 0 {
		l.expires[key] = time.Now().Add(ttl)
	}
	return true, nil
}

func (l *liar) Delete(key string) (bool, error) {
	if l.refuse {
		return false, errors.New("refused")
	}
	if v, ok := l.data[key]; ok {
		l.deleted[key] = v
	}
	delete(l.data, key)
	delete(l.old, key)
	return true, nil
}

// Every way a store can lie must land in the failed count, and so in
// fail_ratio and in the result line's `correct`.
func TestCheckerCatchesLies(t *testing.T) {
	w, _ := workloadByName("served-mixed-rw")
	s := w.build(1)
	run := func(lie func(*liar)) (failures, result) {
		st := newLiar()
		c := newVClients(w, s, false)[0]
		for i := 0; i < 20_000; i++ {
			c.step(st, 0, nil)
		}
		if honest := c.fail.total(); honest != 0 {
			t.Fatalf("honest store: %d failures (%+v)", honest, c.fail)
		}
		lie(st)
		before := snapshot([]*vclient{c})
		for i := 0; i < 20_000; i++ {
			c.step(st, 0, nil)
		}
		total := snapshot([]*vclient{c}).sub(before)
		return total.fail, makeResult(nil, nil, total)
	}
	for name, tc := range map[string]struct {
		lie  func(*liar)
		what func(failures) uint64
	}{
		"stale version":    {func(l *liar) { l.stale = true }, func(f failures) uint64 { return f.lies }},
		"hit after delete": {func(l *liar) { l.undelete = true }, func(f failures) uint64 { return f.lies }},
		"bad CRC":          {func(l *liar) { l.corrupt = true }, func(f failures) uint64 { return f.integrity }},
		"another key":      {func(l *liar) { l.crossWire = true }, func(f failures) uint64 { return f.integrity }},
		"errors":           {func(l *liar) { l.refuse = true }, func(f failures) uint64 { return f.errors }},
	} {
		f, r := run(tc.lie)
		if tc.what(f) == 0 {
			t.Errorf("%s: not caught (%+v)", name, f)
		}
		if r.Failed != f.total() || r.Failed == 0 || r.Correct {
			t.Errorf("%s: result says failed %d correct %v, checker counted %d", name, r.Failed, r.Correct, f.total())
		}
	}

	// A value served more than ttlSlack past its TTL.
	var f failures
	st := &keyState{version: 3, expireAt: nowNano() - int64(3*time.Second)}
	hash := keyHash("k00000000000001")
	v := putValue(make([]byte, 64), hash, 3, 64)
	f.checkHit(st, hash, v, nowNano())
	if f.lies != 1 {
		t.Errorf("hit 3 s past its TTL: %+v, want one lie", f)
	}
	f = failures{}
	st.expireAt = nowNano() - int64(ttlSlack/2)
	f.checkHit(st, hash, v, nowNano())
	if f.total() != 0 {
		t.Errorf("hit within the TTL slack: %+v, want none", f)
	}
}

func TestPercentile(t *testing.T) {
	sorted := make([]int64, 2000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if v, ok := percentile(sorted, 0.99); !ok || v != 1980 {
		t.Errorf("p99 of 1..2000 = %d, %v; want 1980", v, ok)
	}
	if _, ok := percentile(sorted, 0.999); ok {
		t.Error("p99.9 of 2000 samples has 2 samples beyond it and must not be reported")
	}
	if v, ok := percentile(sorted, 0.5); !ok || v != 1000 {
		t.Errorf("p50 of 1..2000 = %d, %v; want 1000", v, ok)
	}
}

// quartiles must be Python's statistics.quantiles(values, n=4): the values
// below are its output.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	if sp := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); math.Abs(sp-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", sp)
	}
}

func TestParseGCTrace(t *testing.T) {
	log := []byte(`gc 1 @0.010s 1%: 0.011+0.40+0.002 ms clock, 0.022+0/0.30/0.10+0.004 ms cpu, 3->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P
some other line
gc 2 @1.500s 3%: 0.020+1.3+0.150 ms clock, 0.040+0/1.0/0.5+0.30 ms cpu, 8->9->4 MB, 9 MB goal, 0 MB stacks, 0 MB globals, 2 P
gc 3 @2.250s 4%: 0.015+0.9+0.004 ms clock, 0.030+0/0.8/0.2+0.008 ms cpu, 8->9->4 MB, 9 MB goal, 0 MB stacks, 0 MB globals, 2 P
`)
	g := parseGCTrace(log, 1.0)
	if g.cycles != 2 || g.cpuPct != 4 || g.pauseMax != 150 {
		t.Errorf("got %+v, want 2 cycles, 4%%, 150 us", g)
	}
}

// The in-memory connection must carry bytes both ways and count calls.
func TestMemConn(t *testing.T) {
	ml := newMemListener()
	go func() {
		c, err := ml.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 16)
		n, _ := c.Read(buf)
		c.Write(buf[:n])
	}()
	near, far, err := ml.dial()
	if err != nil {
		t.Fatal(err)
	}
	near.Write([]byte("ping"))
	buf := make([]byte, 16)
	if n, err := near.Read(buf); err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("echo: %q, %v", buf[:n], err)
	}
	if far.reads.Load() != 1 || far.writes.Load() != 1 {
		t.Errorf("server end counted %d reads %d writes, want 1 and 1", far.reads.Load(), far.writes.Load())
	}
	ml.Close()
	if _, err := ml.Accept(); err == nil {
		t.Error("Accept on a closed listener succeeded")
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the catalogue %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalogue %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	var hasSetup bool
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}
}

// TestSmoke runs every workload briefly, timed and traced, against
// the real binary, and asserts that every metric of the catalogue is
// emitted, that nothing failed, and that nothing is left behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/s3cached")
	}
	l, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.buildServer(); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(l.tmp)
	for _, w := range workloads {
		s := w.build(1)
		for _, trace := range []bool{false, true} {
			// A traced run's phases are an eighth of its seconds each, and a
			// p99.9 wants ten samples beyond it.
			defs, run, seconds := endToEnd, l.timedRun, 1.0
			if trace {
				defs, run, seconds = perLayer, l.traced, 4.0
			}
			rf := resultFile{Workload: w.name, Seed: 1, Seconds: seconds, Trace: trace}
			if err := run(w, s, seconds, &rf); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			for _, d := range defs {
				m, ok := rf.Result.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", w.name, trace, d.Name)
				} else if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v %s, want a number in %s", w.name, trace, d.Name, m.Value, m.Unit, d.Unit)
				}
			}
			if len(rf.Result.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, catalogue has %d", w.name, trace, len(rf.Result.Metrics), len(defs))
			}
			if rf.Result.Failed != 0 || rf.Result.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d", w.name, trace, rf.Result.Attempted, rf.Result.Failed)
			}
		}
	}
	left, _ := filepath.Glob(filepath.Join(l.tmp, "*"))
	if len(left) != 0 {
		t.Errorf("left behind in %s: %v", l.tmp, left)
	}
}
