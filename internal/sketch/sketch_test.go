package sketch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCountMinBasic(t *testing.T) {
	cm := NewCountMin(1024)
	for i := 0; i < 7; i++ {
		cm.Add(42)
	}
	if got := cm.Estimate(42); got < 7 {
		t.Errorf("Estimate(42) = %d, want >= 7", got)
	}
	if got := cm.Estimate(43); got > 7 {
		t.Errorf("Estimate(unseen) = %d, want small", got)
	}
}

func TestCountMinSaturates(t *testing.T) {
	cm := NewCountMin(1024)
	for i := 0; i < 100; i++ {
		cm.Add(7)
	}
	if got := cm.Estimate(7); got != 15 {
		t.Errorf("Estimate = %d, want saturation at 15", got)
	}
}

// TestCountMinNeverUndercounts: count-min estimates are always >= true count
// (up to saturation and before aging).
func TestCountMinNeverUndercounts(t *testing.T) {
	f := func(keys []uint64) bool {
		cm := NewCountMin(4096)
		counts := map[uint64]int{}
		for _, k := range keys {
			if counts[k] >= 15 {
				continue
			}
			cm.Add(k)
			counts[k]++
		}
		for k, c := range counts {
			if int(cm.Estimate(k)) < c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCountMinAging(t *testing.T) {
	cm := NewCountMin(16)
	for i := 0; i < 10; i++ {
		cm.Add(5)
	}
	before := cm.Estimate(5)
	// Force enough increments to trigger at least one reset.
	for i := uint64(0); i < cm.sample+1; i++ {
		cm.Add(i % 8)
	}
	// Counter for key 5 must have been halved at least once (it saturates at
	// 15, so after one halving it is <= 7 plus whatever re-accumulated from
	// the i%8 adds; key 5 is in that set so it can grow back. Use a key that
	// does not recur instead.)
	cm2 := NewCountMin(16)
	for i := 0; i < 10; i++ {
		cm2.Add(1000003)
	}
	if cm2.Estimate(1000003) < 10 {
		t.Fatal("setup: estimate should be >= 10")
	}
	for i := uint64(0); i < cm2.sample+1; i++ {
		cm2.Add(i) // distinct keys, none equal to 1000003... may collide but rarely all rows
	}
	after := cm2.Estimate(1000003)
	if after >= 10 {
		t.Errorf("after aging, estimate = %d, want < 10 (before was %d)", after, before)
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	f := func(keys []uint64) bool {
		b := NewBloom(len(keys)+1, 0.01)
		for _, k := range keys {
			b.Add(k)
		}
		for _, k := range keys {
			if !b.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	n := 10000
	b := NewBloom(n, 0.01)
	rng := rand.New(rand.NewSource(7))
	inserted := map[uint64]bool{}
	for i := 0; i < n; i++ {
		k := rng.Uint64()
		inserted[k] = true
		b.Add(k)
	}
	fp := 0
	trials := 100000
	for i := 0; i < trials; i++ {
		k := rng.Uint64()
		if inserted[k] {
			continue
		}
		if b.Contains(k) {
			fp++
		}
	}
	rate := float64(fp) / float64(trials)
	if rate > 0.05 {
		t.Errorf("false positive rate = %.4f, want <= 0.05", rate)
	}
}

func TestBloomClear(t *testing.T) {
	b := NewBloom(100, 0.01)
	b.Add(1)
	if !b.Contains(1) {
		t.Fatal("Contains(1) after Add should be true")
	}
	b.Clear()
	if b.Contains(1) {
		t.Error("Contains(1) after Clear should be false")
	}
	if b.Count() != 0 {
		t.Errorf("Count after Clear = %d", b.Count())
	}
}

func TestBloomDegenerateParams(t *testing.T) {
	b := NewBloom(0, 2.0) // clamped internally
	b.Add(9)
	if !b.Contains(9) {
		t.Error("clamped filter lost key")
	}
}

func TestDoorkeeperFirstSeen(t *testing.T) {
	d := NewDoorkeeper(1000)
	if d.Allow(5) {
		t.Error("first occurrence should return false")
	}
	if !d.Allow(5) {
		t.Error("second occurrence should return true")
	}
}

func TestDoorkeeperSelfClears(t *testing.T) {
	d := NewDoorkeeper(8)
	for i := uint64(0); i < 100; i++ {
		d.Allow(i)
	}
	// After many inserts the filter must have cleared at least once, so its
	// live count stays bounded.
	if d.bloom.Count() > 8 {
		t.Errorf("doorkeeper bloom count = %d, want <= 8", d.bloom.Count())
	}
}

func TestHashDeterminismAndSpread(t *testing.T) {
	if Hash(1, 2) != Hash(1, 2) {
		t.Error("Hash not deterministic")
	}
	if Hash(1, 2) == Hash(1, 3) || Hash(1, 2) == Hash(2, 2) {
		t.Error("Hash should differ across seeds and keys")
	}
	// Low bits should be well distributed for sequential keys.
	buckets := make([]int, 16)
	for i := uint64(0); i < 16000; i++ {
		buckets[Hash(i, 0)%16]++
	}
	for i, c := range buckets {
		if c < 500 || c > 1500 {
			t.Errorf("bucket %d has %d of 16000 keys; poor spread", i, c)
		}
	}
}

func BenchmarkCountMinAdd(b *testing.B) {
	cm := NewCountMin(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Add(uint64(i))
	}
}

func BenchmarkCountMinEstimate(b *testing.B) {
	cm := NewCountMin(1 << 16)
	for i := 0; i < 1<<16; i++ {
		cm.Add(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Estimate(uint64(i))
	}
}

// TestFNV1aKeepsTheRepositoryBasis pins the offset basis every admission
// ID, ring placement and shard choice is keyed by (one digit short of the
// standard 14695981039346656037), and the two key types agreeing.
func TestFNV1aKeepsTheRepositoryBasis(t *testing.T) {
	if got := FNV1a(""); got != 1469598103934665603 {
		t.Fatalf(`FNV1a("") = %d`, got)
	}
	if got := FNV1a("key-1"); got != 11225851812007222668 {
		t.Fatalf(`FNV1a("key-1") = %d`, got)
	}
	if FNV1a([]byte("key-1")) != FNV1a("key-1") {
		t.Fatal("string and []byte hash differently")
	}
}
