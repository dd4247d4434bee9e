package concurrent

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"s3fifo/internal/proto"
)

func ringEntry(i int) *entry[uint64] {
	return &entry[uint64]{hash: uint64(i), key: uint64(i), size: uint32(i%7 + 1)}
}

// blocks counts the chain, checking on the way that it holds no empty
// block and that the length is that of the queued slots.
func blocks(t *testing.T, q *ring[uint64]) int {
	t.Helper()
	var nb, n int
	for b := q.head; b != nil; b = b.next {
		if b.r >= b.w {
			t.Fatalf("block %d in the chain is empty (r=%d w=%d)", nb, b.r, b.w)
		}
		if b.next == nil && b != q.tail {
			t.Fatal("tail is not the last block")
		}
		nb++
		n += b.w - b.r
	}
	if n != q.len() {
		t.Fatalf("chain holds %d entries, ring says %d", n, q.len())
	}
	if (q.head == nil) != (q.tail == nil) {
		t.Fatal("head and tail disagree about emptiness")
	}
	return nb
}

func TestRingBlockIsOneSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(block[uint64]{}); got != 2048 {
		t.Fatalf("block is %d bytes, want 2048", got)
	}
}

func TestRingFIFOAcrossBlocks(t *testing.T) {
	var q ring[uint64]
	const n = 3*blockSlots + 17
	next := 0 // next key expected from pop
	for i := 0; i < n; i++ {
		q.push(ringEntry(i))
		if i%3 == 2 { // interleave so head and tail cross block edges apart
			if e := q.pop(); e.key != uint64(next) {
				t.Fatalf("pop = %d, want %d", e.key, next)
			}
			next++
		}
	}
	if nb, most := blocks(t, &q), q.len()/blockSlots+2; nb > most {
		t.Fatalf("%d blocks for %d entries, want <= %d", nb, q.len(), most)
	}
	for ; next < n; next++ {
		if e := q.pop(); e == nil || e.key != uint64(next) {
			t.Fatalf("pop = %v, want %d", e, next)
		}
	}
	if q.pop() != nil || q.len() != 0 || blocks(t, &q) != 0 {
		t.Fatalf("drained ring not empty: len %d", q.len())
	}
	// Reuse after pop-to-empty, through the spare.
	for round := 0; round < 3; round++ {
		for i := 0; i < blockSlots+1; i++ {
			q.push(ringEntry(i))
		}
		for i := 0; i < blockSlots+1; i++ {
			if e := q.pop(); e.key != uint64(i) {
				t.Fatalf("round %d: pop = %d, want %d", round, e.key, i)
			}
		}
		if q.pop() != nil {
			t.Fatalf("round %d: pop on empty ring returned an entry", round)
		}
	}
}

func TestRingEachAgreesWithPop(t *testing.T) {
	var q ring[uint64]
	for i := 0; i < 2*blockSlots+5; i++ {
		q.push(ringEntry(i))
	}
	for i := 0; i < blockSlots/2; i++ {
		q.pop()
	}
	var seen []uint64
	if !q.each(func(e *entry[uint64]) bool { seen = append(seen, e.key); return true }) {
		t.Fatal("each stopped early")
	}
	stopAt := 0
	if q.each(func(*entry[uint64]) bool { stopAt++; return stopAt < 10 }) || stopAt != 10 {
		t.Fatalf("each did not stop when told to (visited %d)", stopAt)
	}
	if len(seen) != q.len() {
		t.Fatalf("each visited %d, len %d", len(seen), q.len())
	}
	for i, k := range seen {
		if e := q.pop(); e.key != k {
			t.Fatalf("each[%d] = %d but pop = %d", i, k, e.key)
		}
	}
}

func TestRingSweep(t *testing.T) {
	var q ring[uint64]
	const n = 4 * blockSlots
	for i := 0; i < n; i++ {
		q.push(ringEntry(i))
	}
	for i := 0; i < 10; i++ { // a partly drained head block
		q.pop()
	}
	// Dead at both edges of every block, and the third block dead entirely.
	deadAt := func(i int) bool {
		s := i % blockSlots
		return s == 0 || s == blockSlots-1 || i/blockSlots == 2
	}
	var want []uint64
	for i := 10; i < n; i++ {
		if deadAt(i) {
			continue
		}
		want = append(want, uint64(i))
	}
	q.each(func(e *entry[uint64]) bool {
		if deadAt(int(e.key)) {
			e.state.Store(dead)
		}
		return true
	})
	q.sweep()
	if q.len() != len(want) {
		t.Fatalf("after sweep len %d, want %d", q.len(), len(want))
	}
	if nb, most := blocks(t, &q), (len(want)+blockSlots-1)/blockSlots; nb != most {
		t.Fatalf("swept chain is %d blocks for %d entries, want %d", nb, len(want), most)
	}
	for _, k := range want {
		if e := q.pop(); e.key != k {
			t.Fatalf("after sweep pop = %d, want %d", e.key, k)
		}
	}
	// Everything dead: the chain empties and the ring still works.
	for i := 0; i < blockSlots+3; i++ {
		e := ringEntry(i)
		e.state.Store(dead)
		q.push(e)
	}
	q.sweep()
	if q.len() != 0 || blocks(t, &q) != 0 || q.pop() != nil {
		t.Fatalf("all-dead sweep left len %d", q.len())
	}
	q.push(ringEntry(1))
	if e := q.pop(); e == nil || e.key != 1 {
		t.Fatal("ring unusable after an emptying sweep")
	}
}

// TestRingPinsNothingItPopped is the S-after-warm-up shape: the queue
// peaks at N, then shrinks to N/10 through interleaved push and pop. Every
// entry that has been popped must be collectable while the queue lives on.
func TestRingPinsNothingItPopped(t *testing.T) {
	q := new(ring[uint64])
	var finalized atomic.Int64
	popped := peakThenShrink(q, 20000, &finalized)
	deadline := time.Now().Add(10 * time.Second)
	for finalized.Load() < popped && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := finalized.Load(); got != popped {
		t.Fatalf("%d of %d popped entries were collected: the queue still references %d",
			got, popped, popped-got)
	}
	runtime.KeepAlive(q)
}

// peakThenShrink runs in its own frame so that no popped entry is left in
// a stack slot of the test.
//
//go:noinline
func peakThenShrink(q *ring[uint64], peak int, finalized *atomic.Int64) (popped int64) {
	next := 0
	push := func() {
		e := ringEntry(next)
		runtime.SetFinalizer(e, func(*entry[uint64]) { finalized.Add(1) })
		q.push(e)
		next++
	}
	for next < peak {
		push()
	}
	for q.len() > peak/10 { // two out, one in
		q.pop()
		q.pop()
		push()
		popped += 2
	}
	for i := 0; i < 5*peak; i++ { // steady state at the shrunk size
		q.pop()
		push()
		popped++
	}
	return popped
}

func TestRingSteadyStateAllocatesNothing(t *testing.T) {
	if proto.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	var q ring[uint64]
	es := make([]*entry[uint64], 3*blockSlots)
	for i := range es {
		es[i] = ringEntry(i)
		q.push(es[i])
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 4*blockSlots; i++ {
			q.push(q.pop())
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times per %d operations, want 0", allocs, 4*blockSlots)
	}
}
