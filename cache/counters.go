package cache

import (
	"sync/atomic"
	"unsafe"
)

// opCounters are the counters every Get and Set bumps — DRAM hits, misses,
// sets — striped so that the request path writes a cache line no other
// goroutine is writing: with one shared counter, two cores serving hits
// spent more time passing its line back and forth than in the lookup.
// Stats and /metrics sum the stripes; every bump is an atomic add to some
// stripe, so the sums are exact once the bumping calls have returned.
type opCounters struct {
	stripes [opStripes]opStripe
}

// opStripes is sized against collisions, not cores: two goroutines land on
// the same stripe with probability 1/64, and then they only share a line
// as all goroutines did before.
const (
	opStripeBits = 6
	opStripes    = 1 << opStripeBits
)

// opStripe is one cache line.
type opStripe struct {
	dramHits atomic.Uint64
	misses   atomic.Uint64
	sets     atomic.Uint64
	_        [40]byte
}

// local returns the calling goroutine's stripe. Go has no goroutine id to
// index by; the address of a stack variable serves — goroutines do not
// share stacks, and a goroutine's frames at one call depth stay put until
// its stack is moved, which only changes the stripe it uses from then on.
// Stacks are at least 2 KiB apart, hence the shift; the multiply spreads
// the neighbouring stacks of goroutines started together.
func (c *opCounters) local() *opStripe {
	var mark byte
	at := uint64(uintptr(unsafe.Pointer(&mark)))
	return &c.stripes[(at>>11)*0x9E3779B97F4A7C15>>(64-opStripeBits)]
}

func (c *opCounters) sum() (dramHits, misses, sets uint64) {
	for i := range c.stripes {
		s := &c.stripes[i]
		dramHits += s.dramHits.Load()
		misses += s.misses.Load()
		sets += s.sets.Load()
	}
	return
}
