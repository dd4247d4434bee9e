package ghost

import (
	"testing"
	"testing/quick"
)

func TestInsertContains(t *testing.T) {
	q := New(100)
	q.Insert(1)
	q.Insert(2)
	if !q.Contains(1) || !q.Contains(2) {
		t.Error("recently inserted keys should be present")
	}
	if q.Contains(3) {
		t.Error("never-inserted key reported present")
	}
}

func TestFIFOExpiry(t *testing.T) {
	q := New(10)
	q.Insert(999)
	if !q.Contains(999) {
		t.Fatal("fresh entry missing")
	}
	// 10 more insertions push 999 out of the logical FIFO window.
	for i := uint64(0); i < 10; i++ {
		q.Insert(i + 1000)
	}
	if q.Contains(999) {
		t.Error("entry should have expired after capacity insertions")
	}
}

func TestRefreshOnReinsert(t *testing.T) {
	q := New(10)
	q.Insert(42)
	for i := uint64(0); i < 9; i++ {
		q.Insert(i + 100)
	}
	q.Insert(42) // refresh just before expiry
	for i := uint64(0); i < 9; i++ {
		q.Insert(i + 200)
	}
	if !q.Contains(42) {
		t.Error("refreshed entry should still be live")
	}
}

func TestRemove(t *testing.T) {
	q := New(100)
	q.Insert(7)
	q.Remove(7)
	if q.Contains(7) {
		t.Error("removed entry still present")
	}
	q.Remove(8) // removing absent key is a no-op
}

func TestResize(t *testing.T) {
	q := New(100)
	q.Insert(1)
	q.Resize(1)
	q.Insert(2)
	if q.Contains(1) {
		t.Error("shrinking should expire old entries")
	}
	if q.Capacity() != 1 {
		t.Errorf("Capacity = %d, want 1", q.Capacity())
	}
	q.Resize(0)
	if q.Capacity() != 1 {
		t.Errorf("Capacity after Resize(0) = %d, want clamp to 1", q.Capacity())
	}
}

// TestResizeRegrowsTable: growing far beyond the initial capacity must
// regrow the bucket array (keeping the collision rate) and keep recently
// inserted entries findable after migration.
func TestResizeRegrowsTable(t *testing.T) {
	q := New(16)
	for i := uint64(0); i < 16; i++ {
		q.Insert(i)
	}
	before := len(q.buckets)
	q.Resize(4096)
	if len(q.buckets) <= before {
		t.Fatalf("buckets did not grow: %d -> %d", before, len(q.buckets))
	}
	// The 16 pre-resize entries were inserted within the last 16 logical
	// ticks, far inside the new 4096 window; migration must preserve them
	// (modulo rare fingerprint-bucket overflow).
	missing := 0
	for i := uint64(0); i < 16; i++ {
		if !q.Contains(i) {
			missing++
		}
	}
	if missing > 1 {
		t.Errorf("%d of 16 entries lost across regrow", missing)
	}
	// And the grown table must actually hold a large working set: fill to
	// the new capacity and check the recent window survives.
	for i := uint64(1000); i < 1000+4096; i++ {
		q.Insert(i)
	}
	missing = 0
	for i := uint64(1000 + 4096 - 256); i < 1000+4096; i++ {
		if !q.Contains(i) {
			missing++
		}
	}
	if missing > 8 {
		t.Errorf("%d of 256 recent entries missing after regrow fill", missing)
	}
}

func TestHitsCounter(t *testing.T) {
	q := New(100)
	q.Insert(5)
	q.Contains(5)
	q.Contains(5)
	q.Contains(6) // miss: not counted
	if q.Hits() != 2 {
		t.Errorf("Hits = %d, want 2", q.Hits())
	}
}

func TestLenBounded(t *testing.T) {
	q := New(64)
	for i := uint64(0); i < 1000; i++ {
		q.Insert(i)
	}
	if got := q.Len(); got > 64 {
		t.Errorf("Len = %d, want <= capacity 64", got)
	}
}

// TestQuickRecentWindow: the most recent ceil(cap/4) distinct insertions are
// almost always still present (collisions can displace a few, but with 2x
// slot headroom displacement of very recent entries should be rare enough
// that we allow a small error budget).
func TestQuickRecentWindow(t *testing.T) {
	f := func(seed uint32) bool {
		q := New(256)
		base := uint64(seed) * 1_000_003
		for i := uint64(0); i < 512; i++ {
			q.Insert(base + i)
		}
		missing := 0
		for i := uint64(512 - 64); i < 512; i++ {
			if !q.Contains(base + i) {
				missing++
			}
		}
		return missing <= 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickExpiredNeverLinger: entries older than capacity insertions are
// never reported present.
func TestQuickExpiredNeverLinger(t *testing.T) {
	f := func(keys []uint64) bool {
		q := New(32)
		for _, k := range keys {
			q.Insert(k)
		}
		if len(keys) <= 32 {
			return true
		}
		// Keys inserted more than 32 insertions ago must be gone unless the
		// same key recurs later in the stream.
		last := map[uint64]int{}
		for i, k := range keys {
			last[k] = i
		}
		for i, k := range keys {
			if last[k] != i {
				continue // recurs later; refreshed
			}
			if len(keys)-i > 32 && q.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsertContains(b *testing.B) {
	q := New(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Insert(uint64(i))
		q.Contains(uint64(i) / 2)
	}
}
