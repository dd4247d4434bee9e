package policy

import (
	"testing"

	"s3fifo/internal/workload"
)

// TestMQResumeFrequencyClass: an evicted block remembered in Qout resumes
// its high frequency class on readmission.
func TestMQResumeFrequencyClass(t *testing.T) {
	p := NewMQ(8)
	for i := 0; i < 16; i++ {
		p.Request(1, 1) // frequency class log2(16) = 4
	}
	for i := uint64(10); i < 30; i++ {
		p.Request(i, 1) // evict 1 into Qout
	}
	if p.Contains(1) {
		t.Skip("block 1 still resident; churn insufficient")
	}
	p.Request(1, 1) // readmit
	e := p.entries[1]
	if e.level < 2 {
		t.Errorf("readmitted block resumed level %d, want its old high class", e.level)
	}
}

// TestMQLifetimeDemotion: an untouched high-level block drifts down.
func TestMQLifetimeDemotion(t *testing.T) {
	p := NewMQ(4)
	for i := 0; i < 8; i++ {
		p.Request(1, 1)
	}
	start := p.entries[1].level
	if start < 2 {
		t.Fatalf("setup: level %d", start)
	}
	// Touch other blocks for >> lifeTime requests without touching 1.
	for i := 0; i < int(p.lifeTime)*3; i++ {
		p.Request(uint64(2+i%2), 1)
	}
	if e, ok := p.entries[1]; ok && e.level >= start {
		t.Errorf("block 1 never demoted (level %d)", e.level)
	}
}

// TestEELRUSwitchesToEarlyEviction: on a loop slightly larger than the
// cache, EELRU must beat LRU (which gets zero hits).
func TestEELRUSwitchesToEarlyEviction(t *testing.T) {
	const n, capacity, rounds = 120, 100, 60
	e := NewEELRU(capacity)
	lru := NewLRU(capacity)
	var hitsE, hitsLRU int
	for r := 0; r < rounds; r++ {
		for i := uint64(0); i < n; i++ {
			if e.Request(i, 1) {
				hitsE++
			}
			if lru.Request(i, 1) {
				hitsLRU++
			}
		}
	}
	if hitsE <= hitsLRU+n {
		t.Errorf("EELRU hits %d vs LRU %d on a loop workload", hitsE, hitsLRU)
	}
}

// TestClockProAdaptsColdTarget: re-accesses during test periods grow the
// cold allocation.
func TestClockProAdaptsColdTarget(t *testing.T) {
	p := NewClockPro(100)
	// Build pressure so pages get evicted into test periods, then
	// re-access them quickly.
	for round := 0; round < 20; round++ {
		for i := uint64(0); i < 130; i++ {
			p.Request(i, 1)
		}
	}
	// Invariants after heavy churn.
	if p.Used() > p.Capacity() {
		t.Errorf("Used %d > Capacity", p.Used())
	}
	if p.coldTarget < 1 || p.coldTarget > p.capacity {
		t.Errorf("coldTarget %d out of range", p.coldTarget)
	}
}

// TestClockProScanResistance: like LIRS, a scan must not flush the hot set.
func TestClockProScanResistance(t *testing.T) {
	p := NewClockPro(100)
	for round := 0; round < 5; round++ {
		for i := uint64(0); i < 80; i++ {
			p.Request(i, 1)
		}
	}
	for i := uint64(10000); i < 11000; i++ {
		p.Request(i, 1)
	}
	surviving := 0
	for i := uint64(0); i < 80; i++ {
		if p.Contains(i) {
			surviving++
		}
	}
	if surviving < 40 {
		t.Errorf("only %d/80 hot pages survived the scan", surviving)
	}
}

// TestCACHEUSAdaptiveLearningRate: the learning rate must move away from
// its initial value under a shifting workload.
func TestCACHEUSAdaptiveLearningRate(t *testing.T) {
	p := NewCACHEUS(200)
	initial := p.lr
	tr := workload.Generate(workload.Config{Objects: 3000, Requests: 100000, Alpha: 0.8, ScanFraction: 0.1}, 3)
	replay(p, tr)
	if p.lr == initial {
		t.Error("learning rate never adapted")
	}
	if lr := p.lr; lr <= 0 || lr > 1 {
		t.Errorf("learning rate %v out of range", lr)
	}
}

// TestCACHEUSSRLRUScanResistance: the probationary region absorbs scans.
func TestCACHEUSSRLRUScanResistance(t *testing.T) {
	p := NewCACHEUS(100)
	lru := NewLRU(100)
	tr := workload.Generate(workload.Config{Objects: 500, Requests: 60000, Alpha: 1.0, ScanFraction: 0.3, ScanLength: 300}, 7)
	mC, mL := replay(p, tr), replay(lru, tr)
	if mC >= mL {
		t.Errorf("CACHEUS (%d) should beat LRU (%d) on scan-heavy trace", mC, mL)
	}
}
