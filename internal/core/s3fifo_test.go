package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"s3fifo/internal/policy"
	"s3fifo/internal/trace"
	"s3fifo/internal/workload"
)

// adversarialTwoHit interleaves a hot round-robin stream over `hot`
// objects (which occupies M) with a cold stream requesting each object
// exactly twice, `gap` cold-steps apart — the adversarial pattern §5.2
// identifies for space-partitioning algorithms.
func adversarialTwoHit(n, hot, gap int) trace.Trace {
	var tr trace.Trace
	type pending struct {
		at int
		id uint64
	}
	var queue []pending
	next := uint64(1 << 20)
	coldStep := 0
	for i := 0; len(tr) < n; i++ {
		if i%2 == 0 {
			tr = append(tr, trace.Request{ID: uint64(i / 2 % hot), Size: 1})
			continue
		}
		if len(queue) > 0 && queue[0].at <= coldStep {
			p := queue[0]
			queue = queue[1:]
			tr = append(tr, trace.Request{ID: p.id, Size: 1})
		} else {
			id := next
			next++
			queue = append(queue, pending{at: coldStep + gap, id: id})
			tr = append(tr, trace.Request{ID: id, Size: 1})
		}
		coldStep++
	}
	return tr
}

func replay(p policy.Policy, tr trace.Trace) int {
	misses := 0
	for _, r := range tr {
		if r.Op == trace.OpDelete {
			p.Delete(r.ID)
			continue
		}
		if !p.Request(r.ID, r.Size) {
			misses++
		}
	}
	return misses
}

func TestAlgorithm1ToyWalkthrough(t *testing.T) {
	// Capacity 10 => S target 1, M 9 (unit sizes). Walk the basic flows.
	c := NewS3FIFO(10, Options{})
	if c.Name() != "s3fifo" {
		t.Fatalf("Name = %q", c.Name())
	}
	// Miss inserts into S.
	if c.Request(1, 1) {
		t.Fatal("first request hit")
	}
	if c.SmallLen() != 1 || c.MainLen() != 0 {
		t.Fatalf("S=%d M=%d after first insert", c.SmallLen(), c.MainLen())
	}
	// Hit only bumps frequency, no movement.
	if !c.Request(1, 1) {
		t.Fatal("second request missed")
	}
	if c.SmallLen() != 1 {
		t.Fatal("hit must not move object")
	}
}

func TestOneHitWondersFlowToGhost(t *testing.T) {
	c := NewS3FIFO(10, Options{})
	// Fill the cache with one-hit wonders: once full, S evictions should
	// demote (freq < threshold) into the ghost, never into M.
	for i := uint64(0); i < 100; i++ {
		c.Request(i, 1)
	}
	st := c.Stats()
	if st.MovedToMain != 0 {
		t.Errorf("one-hit wonders promoted to M: %d", st.MovedToMain)
	}
	if st.MovedToGhost == 0 {
		t.Error("no demotions to ghost despite churn")
	}
}

func TestGhostReadmissionToMain(t *testing.T) {
	c := NewS3FIFO(10, Options{})
	c.Request(42, 1)
	// Push 42 out of S into the ghost.
	for i := uint64(100); i < 120; i++ {
		c.Request(i, 1)
	}
	if c.Contains(42) {
		t.Fatal("42 should have been demoted")
	}
	// Re-request: ghost hit, so it must be inserted into M.
	before := c.Stats().InsertedToMain
	c.Request(42, 1)
	if got := c.Stats().InsertedToMain; got != before+1 {
		t.Errorf("InsertedToMain = %d, want %d", got, before+1)
	}
	if !c.Contains(42) {
		t.Fatal("42 not resident after readmission")
	}
}

func TestFrequentObjectPromotedAtSEviction(t *testing.T) {
	c := NewS3FIFO(20, Options{}) // S target = 2
	c.Request(7, 1)
	c.Request(7, 1) // freq 1
	c.Request(7, 1) // freq 2 >= MoveThreshold
	// Churn S so 7 reaches the tail and is scanned out.
	for i := uint64(100); i < 140; i++ {
		c.Request(i, 1)
	}
	if !c.Contains(7) {
		t.Fatal("frequent object evicted instead of promoted")
	}
	if c.Stats().MovedToMain == 0 {
		t.Error("no promotion recorded")
	}
}

func TestFrequencyCap(t *testing.T) {
	c := NewS3FIFO(10, Options{})
	c.Request(1, 1)
	for i := 0; i < 100; i++ {
		c.Request(1, 1)
	}
	e := c.index[1]
	if e.node.Freq != maxFreq {
		t.Errorf("freq = %d, want capped at %d", e.node.Freq, maxFreq)
	}
}

func TestMainReinsertionDecrementsFreq(t *testing.T) {
	c := NewS3FIFO(20, Options{})
	// Phase 1: fill the ghost (0..39 demoted; 40..59 resident in S).
	for i := uint64(0); i < 60; i++ {
		c.Request(i, 1)
	}
	// Phase 2: re-request live ghosts — they readmit straight into M.
	for i := uint64(25); i < 40; i++ {
		c.Request(i, 1)
	}
	if c.Stats().InsertedToMain == 0 {
		t.Fatal("ghost readmission to M never happened")
	}
	// Phase 3: hit them in M so their frequency is non-zero.
	for i := uint64(25); i < 40; i++ {
		c.Request(i, 1)
	}
	// Phase 4: churn S and refill the ghost with fresh IDs.
	for i := uint64(300); i < 360; i++ {
		c.Request(i, 1)
	}
	// Phase 5: readmissions drain S and force M evictions; the phase-3
	// objects at M's tail carry freq 1 and must be reinserted.
	for i := uint64(340); i < 355; i++ {
		c.Request(i, 1)
	}
	if c.Stats().ReinsertedMain == 0 {
		t.Error("expected at least one M reinsertion")
	}
}

func TestCapacityInvariant(t *testing.T) {
	tr := workload.Generate(workload.Config{
		Objects: 3000, Requests: 40000, Alpha: 0.9,
		ScanFraction: 0.05, DeleteFraction: 0.02, MeanSize: 32, SizeSigma: 1.2,
	}, 3)
	for name, f := range Factories() {
		p := f(2048)
		for i, r := range tr {
			if r.Op == trace.OpDelete {
				p.Delete(r.ID)
			} else {
				p.Request(r.ID, r.Size)
			}
			if p.Used() > p.Capacity() {
				t.Fatalf("%s: Used %d > Capacity %d at request %d", name, p.Used(), p.Capacity(), i)
			}
		}
	}
}

func TestQuickHitConsistency(t *testing.T) {
	// Against a reference set: an object that was never requested can't
	// hit; an object requested while cache is bigger than footprint must
	// hit on re-request.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewS3FIFO(1000, Options{})
		seen := map[uint64]bool{}
		for i := 0; i < 2000; i++ {
			key := uint64(rng.Intn(500))
			hit := c.Request(key, 1)
			if hit != seen[key] {
				return false
			}
			seen[key] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickGuaranteedDemotionSpeed(t *testing.T) {
	// §6.1: S3-FIFO guarantees one-hit wonders leave within a bounded
	// number of insertions. With unit sizes and S target s, an unaccessed
	// object must leave S before ~2s further S-insertions plus slack.
	c := NewS3FIFO(100, Options{}) // S target = 10
	var demotions []policy.Demotion
	c.SetDemotionObserver(func(d policy.Demotion) { demotions = append(demotions, d) })
	// Steady state: fill, then stream one-hit wonders.
	for i := uint64(0); i < 10000; i++ {
		c.Request(i, 1)
	}
	if len(demotions) == 0 {
		t.Fatal("no demotions observed")
	}
	for _, d := range demotions {
		if stay := d.Left - d.Entered; stay > 200 {
			t.Fatalf("object %d stayed %d requests in S; guarantee violated", d.Key, stay)
		}
	}
}

func TestDeleteFromBothQueues(t *testing.T) {
	c := NewS3FIFO(20, Options{})
	c.Request(1, 1) // in S
	c.Delete(1)
	if c.Contains(1) {
		t.Error("delete from S failed")
	}
	// Put 2 into M via ghost readmission.
	c.Request(2, 1)
	for i := uint64(100); i < 140; i++ {
		c.Request(i, 1)
	}
	c.Request(2, 1) // ghost -> M
	c.Delete(2)
	if c.Contains(2) {
		t.Error("delete from M failed")
	}
	if c.Used() > c.Capacity() {
		t.Error("accounting corrupted by deletes")
	}
	c.Delete(999) // absent is a no-op
}

func TestOversizedBypass(t *testing.T) {
	c := NewS3FIFO(10, Options{})
	if c.Request(1, 100) {
		t.Error("oversized hit")
	}
	if c.Contains(1) || c.Used() != 0 {
		t.Error("oversized object admitted")
	}
}

func TestSmallRatioOption(t *testing.T) {
	c := NewS3FIFO(1000, Options{SmallRatio: 0.3})
	if c.sTarget != 300 {
		t.Errorf("sTarget = %d, want 300", c.sTarget)
	}
	if c.Name() != "s3fifo-0.3" {
		t.Errorf("Name = %q", c.Name())
	}
	// Degenerate ratios clamp to the default.
	c2 := NewS3FIFO(1000, Options{SmallRatio: 1.5})
	if c2.sTarget != 100 {
		t.Errorf("clamped sTarget = %d, want 100", c2.sTarget)
	}
}

func TestAblationNames(t *testing.T) {
	cases := map[string]Options{
		"s3fifo":             {},
		"s3fifo-lru-s":       {SmallKind: LRUQueue},
		"s3fifo-lru-m":       {MainKind: LRUQueue},
		"s3fifo-lru-both":    {SmallKind: LRUQueue, MainKind: LRUQueue},
		"s3fifo-hit-promote": {PromoteOnHit: true},
		"s3fifo-sieve-m":     {MainKind: SieveQueue},
	}
	for want, opts := range cases {
		if got := NewS3FIFO(100, opts).Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestAblationsBehaveReasonably(t *testing.T) {
	// §6.3: LRU queues do not improve efficiency. We check the ablations
	// run correctly and land within a sane band of the FIFO version.
	tr := workload.Generate(workload.Config{Objects: 5000, Requests: 100000, Alpha: 1.0}, 7)
	baseMisses := replay(NewS3FIFO(500, Options{}), tr)
	for _, opts := range []Options{
		{SmallKind: LRUQueue}, {MainKind: LRUQueue},
		{SmallKind: LRUQueue, MainKind: LRUQueue}, {PromoteOnHit: true},
		{MainKind: SieveQueue},
	} {
		p := NewS3FIFO(500, opts)
		m := replay(p, tr)
		if float64(m) > 1.1*float64(baseMisses) || float64(m) < 0.9*float64(baseMisses) {
			t.Errorf("%s: misses %d vs base %d — ablation should be close (queue type does not matter)", p.Name(), m, baseMisses)
		}
	}
}

func TestS3FIFOBeatsFIFOAndLRUOnSkewedTraces(t *testing.T) {
	// The headline claim, on our synthetic corpus members.
	for _, prof := range []string{"msr", "twitter", "cdn1"} {
		p, ok := workload.ProfileByName(prof)
		if !ok {
			t.Fatalf("missing profile %s", prof)
		}
		tr := p.Generate(0, 0.1)
		capacity := uint64(float64(tr.UniqueObjects()) * 0.1)
		unitized := make(trace.Trace, len(tr))
		for i, r := range tr {
			unitized[i] = trace.Request{ID: r.ID, Op: r.Op, Size: 1}
		}
		s3 := NewS3FIFO(capacity, Options{})
		fifo, _ := policy.New("fifo", capacity)
		lru, _ := policy.New("lru", capacity)
		mS3, mFIFO, mLRU := replay(s3, unitized), replay(fifo, unitized), replay(lru, unitized)
		if mS3 >= mFIFO {
			t.Errorf("%s: S3-FIFO (%d) not better than FIFO (%d)", prof, mS3, mFIFO)
		}
		if mS3 >= mLRU {
			t.Errorf("%s: S3-FIFO (%d) not better than LRU (%d)", prof, mS3, mLRU)
		}
	}
}

func TestS3FIFODAdaptsUnderAdversarialWorkload(t *testing.T) {
	// §5.2's adversarial pattern: a hot round-robin stream keeps M busy
	// while a cold stream requests each object exactly twice with a gap
	// that falls just outside S. The static split wastes space; the
	// adaptive variant detects the regret through its shadow queues,
	// rebalances the split, and recovers part of the misses.
	tr := adversarialTwoHit(300000, 1500, 600)
	capacity := uint64(2000) // S target = 200
	d := NewS3FIFOD(capacity, Options{})
	initial := d.sTarget
	mD := replay(d, tr)
	if d.sTarget == initial {
		t.Errorf("adaptive S target never moved from %d", initial)
	}
	mS := replay(NewS3FIFO(capacity, Options{}), tr)
	if mD >= mS {
		t.Errorf("S3-FIFO-D (%d misses) should beat static S3-FIFO (%d) on adversarial trace", mD, mS)
	}
}

func TestS3FIFODCloseToStaticOnNormalWorkload(t *testing.T) {
	tr := workload.Generate(workload.Config{Objects: 5000, Requests: 100000, Alpha: 1.0}, 13)
	mD := replay(NewS3FIFOD(500, Options{}), tr)
	mS := replay(NewS3FIFO(500, Options{}), tr)
	if float64(mD) > 1.1*float64(mS) {
		t.Errorf("S3-FIFO-D (%d) much worse than static (%d) on normal workload", mD, mS)
	}
}

func TestFactoriesComplete(t *testing.T) {
	fs := Factories()
	for _, name := range []string{"s3fifo", "s3fifo-d", "s3fifo-lru-s", "s3fifo-lru-m", "s3fifo-lru-both", "s3fifo-hit-promote", "s3fifo-sieve-m"} {
		f, ok := fs[name]
		if !ok {
			t.Errorf("missing factory %q", name)
			continue
		}
		p := f(100)
		if p.Capacity() != 100 {
			t.Errorf("%s: capacity not wired", name)
		}
	}
}

func TestObserverEvents(t *testing.T) {
	c := NewS3FIFO(50, Options{})
	resident := map[uint64]bool{}
	c.SetObserver(func(ev policy.Eviction) {
		if !resident[ev.Key] {
			t.Fatalf("evicted non-resident %d", ev.Key)
		}
		delete(resident, ev.Key)
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		key := uint64(rng.Intn(500))
		had := c.Contains(key)
		c.Request(key, 1)
		if !had && c.Contains(key) {
			resident[key] = true
		}
	}
}

func BenchmarkS3FIFO(b *testing.B) {
	tr := workload.Generate(workload.Config{Objects: 100_000, Requests: 1_000_000, Alpha: 1.0}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewS3FIFO(10_000, Options{})
		replay(c, tr)
	}
	b.SetBytes(int64(len(tr)))
}

func BenchmarkS3FIFOD(b *testing.B) {
	tr := workload.Generate(workload.Config{Objects: 100_000, Requests: 1_000_000, Alpha: 1.0}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewS3FIFOD(10_000, Options{})
		replay(c, tr)
	}
	b.SetBytes(int64(len(tr)))
}
