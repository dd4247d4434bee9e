// Property-style tests pitting the ghost queue against a reference
// model. The table is keyed by 4-byte fingerprints and reclaims expired
// slots lazily on collision (§4.2), so the contract under test is:
//
//  1. No stale positives: Contains is true only for a fingerprint whose
//     latest insertion is within the queue's capacity of logical time —
//     never for removed or expired entries.
//  2. Bounded false negatives: a live entry may be displaced by a bucket
//     collision, but with the table's 2x slot headroom that stays rare.
//
// The model tracks fingerprints, not keys: two keys colliding on all 32
// fingerprint bits are indistinguishable to the queue by design, and the
// model must be blind in exactly the same way.
package ghost

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// TestQueueMatchesReferenceModel runs the model, which keeps 64-bit
// times, against a queue whose clock starts at zero, just below 2³¹ (the
// scrub is crossed mid-run) and just below 2³² (the slots' 32-bit times
// wrap mid-run), resizing down and up (past a regrow) on the way.
func TestQueueMatchesReferenceModel(t *testing.T) {
	for _, start := range []uint64{0, 1<<31 - 30000, 1<<32 - 30000, 5<<32 - 30000} {
		t.Run(fmt.Sprintf("clock=%#x", start), func(t *testing.T) { runAgainstModel(t, start) })
	}
}

func runAgainstModel(t *testing.T, start uint64) {
	capacity := uint64(256)
	q := New(int(capacity))
	q.clock = start
	rng := rand.New(rand.NewSource(7))

	model := map[uint32]uint64{} // fingerprint -> latest logical insert time
	clock := start
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	modelLive := func(fp uint32) bool {
		at, ok := model[fp]
		return ok && clock-at < capacity
	}

	var liveChecks, falseNegatives, exported int
	sweep := func(step int) {
		for _, k := range keys {
			_, fp := q.locate(k)
			got := q.Contains(k)
			if got && !modelLive(fp) {
				t.Fatalf("step %d: Contains(%#x) true but model says expired/removed (fp %#x)",
					step, k, fp)
			}
			if modelLive(fp) {
				liveChecks++
				if !got {
					falseNegatives++ // displaced by collision: allowed, but counted
				}
			}
		}
		// Export is oldest-first by the model's 64-bit times.
		last := uint64(0)
		q.Export(func(fp uint32) bool {
			if !modelLive(fp) {
				t.Fatalf("step %d: Export gave fp %#x, which the model says is not live", step, fp)
			}
			at := model[fp]
			if at <= last {
				t.Fatalf("step %d: Export out of order: fp %#x inserted at %d after one at %d", step, fp, at, last)
			}
			last = at
			exported++
			return true
		})
	}

	resizes := []uint64{64, 1024, 128, 300, 256}
	for step := 0; step < 60000; step++ {
		k := keys[rng.Intn(len(keys))]
		_, fp := q.locate(k)
		if rng.Intn(10) == 0 {
			q.Remove(k)
			delete(model, fp)
		} else {
			q.Insert(k)
			clock++
			model[fp] = clock
		}
		if q.clock != clock {
			t.Fatalf("step %d: queue clock %d drifted from model clock %d", step, q.clock, clock)
		}
		if step%5000 == 2500 {
			capacity = resizes[step/5000%len(resizes)]
			q.Resize(int(capacity))
		}
		if step%1000 == 0 {
			sweep(step)
		}
	}
	sweep(60000)
	if liveChecks == 0 || exported == 0 {
		t.Fatal("model never had a live entry; test is vacuous")
	}
	if ratio := float64(falseNegatives) / float64(liveChecks); ratio > 0.05 {
		t.Errorf("false-negative ratio %.3f (%d/%d): displacement should be rare with 2x headroom",
			ratio, falseNegatives, liveChecks)
	}
}

// TestScrubFreesEverySlotNotLive pins the rule that keeps 32-bit ages
// exact: the insertion that brings the clock to a multiple of 2³¹ leaves
// no used slot that is not live.
func TestScrubFreesEverySlotNotLive(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 8 {
		t.Fatalf("slot is %d bytes, want 8", got)
	}
	const capacity = 8
	q := New(capacity)
	q.clock = 1<<31 - 20
	used := func() (n int) {
		for i := range q.buckets {
			for _, s := range q.buckets[i] {
				if s.fingerprint != 0 {
					n++
				}
			}
		}
		return n
	}
	for k := uint64(0); k < 19; k++ {
		q.Insert(k)
	}
	if used() <= q.Len() {
		t.Fatalf("no expired slot to scrub: %d used, %d live", used(), q.Len())
	}
	q.Insert(19) // clock reaches 2³¹
	if q.clock != 1<<31 {
		t.Fatalf("clock = %d, want 2^31", q.clock)
	}
	if u, l := used(), q.Len(); u != l || l == 0 {
		t.Fatalf("after the scrub %d slots are used and %d live", u, l)
	}
	if !q.Contains(19) || !q.Contains(15) || q.Contains(11) {
		t.Fatal("scrub changed which entries are live")
	}
}

// TestEntryNeverSurvivesCapacity pins the expiry rule exactly: an entry
// is gone once capacity insertions have happened since its own, with no
// eager removal needed.
func TestEntryNeverSurvivesCapacity(t *testing.T) {
	const capacity = 64
	q := New(capacity)
	q.Insert(0xA11CE)
	for i := 0; i < capacity-1; i++ {
		q.Insert(uint64(1000 + i))
	}
	// capacity-1 insertions after ours: one tick of life left. The entry
	// may have been displaced (rare; not with these keys), but it must
	// not outlive the next tick either way.
	wasAlive := q.Contains(0xA11CE)
	q.Insert(uint64(9999))
	if q.Contains(0xA11CE) {
		t.Fatalf("entry alive after %d subsequent insertions (alive before: %v)",
			capacity, wasAlive)
	}
	if !wasAlive {
		t.Log("entry displaced before expiry; expiry bound still held")
	}
}

// bucketMates returns n keys that all land in the same bucket as seed,
// with distinct fingerprints.
func bucketMates(q *Queue, seed uint64, n int) []uint64 {
	wantBucket, seedFP := q.locate(seed)
	mates := []uint64{seed}
	fps := map[uint32]bool{seedFP: true}
	for k := uint64(1); len(mates) < n; k++ {
		b, fp := q.locate(k)
		if b == wantBucket && !fps[fp] {
			mates = append(mates, k)
			fps[fp] = true
		}
	}
	return mates
}

// TestStaleSlotsReclaimedOnCollision drives §4.2's lazy reclamation: a
// bucket full of expired entries must hand a slot to a new insertion.
func TestStaleSlotsReclaimedOnCollision(t *testing.T) {
	const capacity = 8
	q := New(capacity)
	mates := bucketMates(q, 42, slotsPerBucket+1)
	bucket, _ := q.locate(42)

	// Fill the bucket.
	for _, k := range mates[:slotsPerBucket] {
		q.Insert(k)
	}
	// Expire all four by inserting capacity keys that live elsewhere.
	inserted := 0
	for k := uint64(1 << 40); inserted < capacity; k++ {
		if b, _ := q.locate(k); b == bucket {
			continue
		}
		q.Insert(k)
		inserted++
	}
	for _, k := range mates[:slotsPerBucket] {
		if q.Contains(k) {
			t.Fatalf("entry %#x still live after %d insertions", k, capacity)
		}
	}
	// The newcomer must claim one of the stale slots.
	q.Insert(mates[slotsPerBucket])
	if !q.Contains(mates[slotsPerBucket]) {
		t.Fatal("insertion into a bucket of expired entries was lost")
	}
	live := 0
	for _, s := range q.buckets[bucket] {
		if q.live(s) {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("bucket holds %d live entries, want exactly the newcomer", live)
	}
}

// TestOldestDisplacedAcrossTheWrap: a full bucket of live entries whose
// 32-bit times straddle the wrap must still give up its oldest to an
// insertion, and Export must still list the rest oldest-first.
func TestOldestDisplacedAcrossTheWrap(t *testing.T) {
	q := New(64)
	q.clock = 1<<32 - 2 // the four land at 2³²−1, 2³², 2³²+1, 2³²+2
	mates := bucketMates(q, 42, slotsPerBucket+1)
	for _, k := range mates[:slotsPerBucket] {
		q.Insert(k)
	}
	q.Insert(mates[slotsPerBucket])
	if q.Contains(mates[0]) {
		t.Fatal("the oldest entry survived a full-bucket insertion")
	}
	for _, k := range mates[1:] {
		if !q.Contains(k) {
			t.Fatalf("entry %#x displaced in place of the oldest", k)
		}
	}
	var order []uint32
	q.Export(func(fp uint32) bool { order = append(order, fp); return true })
	for i, k := range mates[1:] {
		if _, fp := q.locate(k); order[i] != fp {
			t.Fatalf("Export[%d] = %#x, want %#x (insertion order)", i, order[i], fp)
		}
	}
}

// TestResizeKeepsRecentEntries checks both directions: growing regrows
// the table and migrates live entries; shrinking implicitly expires the
// oldest.
func TestResizeKeepsRecentEntries(t *testing.T) {
	q := New(32)
	for k := uint64(0); k < 32; k++ {
		q.Insert(k)
	}
	before := q.Len()
	if before == 0 {
		t.Fatal("no live entries before resize")
	}
	q.Resize(1024) // forces a regrow: 1024*2 > 16 buckets * 4 slots
	if got := q.Len(); got < before {
		t.Fatalf("regrow lost entries: %d -> %d", before, got)
	}
	for k := uint64(16); k < 32; k++ {
		if !q.Contains(k) {
			t.Errorf("recent entry %d lost by regrow", k)
		}
	}
	// Entries inserted after the grow enjoy the longer lifetime.
	q.Insert(5000)
	for i := 0; i < 512; i++ {
		q.Insert(uint64(10000 + i))
	}
	if !q.Contains(5000) {
		t.Error("entry expired before the resized capacity was reached")
	}
	// Shrinking expires everything older than the new capacity.
	q.Resize(4)
	if q.Contains(5000) {
		t.Error("entry survived a shrink that should expire it")
	}
	if got, want := q.Len(), 4; got > want {
		t.Errorf("Len() = %d after Resize(4), want <= %d", got, want)
	}
}
