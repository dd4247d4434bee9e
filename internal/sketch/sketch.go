// Package sketch provides the probabilistic frequency/membership structures
// used by admission- and frequency-based eviction algorithms: a count-min
// sketch with periodic aging (TinyLFU), a Bloom filter (B-LRU admission),
// and a doorkeeper (a Bloom filter that absorbs the first occurrence of each
// key in front of a count-min sketch).
package sketch

import "math"

// mix64 is the SplitMix64 finalizer, a cheap high-quality 64-bit mixer used
// to derive independent hash functions from a key and a seed.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash returns a mixed hash of key with the given seed. Exported for the
// ghost table and sharded caches, which need compatible fingerprints.
func Hash(key, seed uint64) uint64 { return mix64(key ^ mix64(seed)) }

// FNV1a is FNV-1a over the bytes of key, the one string hash every
// package folds through Hash with a seed of its own (or uses raw). Its
// offset basis is this repository's 1469598103934665603, one digit short
// of the standard 14695981039346656037; changing it would move every
// admission ID, ring placement and shard choice.
func FNV1a[K string | []byte](key K) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// CountMin is a 4-row count-min sketch of 4-bit counters with TinyLFU-style
// aging: once the total number of increments reaches the reset sample size,
// every counter is halved. Estimates are therefore frequency over a sliding
// window of roughly the sample size.
type CountMin struct {
	rows    [4][]uint8 // 4-bit counters packed two per byte
	mask    uint64
	sample  uint64 // increments before a reset
	applied uint64 // increments since the last reset
}

// NewCountMin returns a sketch sized for counting roughly n distinct keys.
// The reset window is 10·n increments, mirroring TinyLFU's W=10C choice.
func NewCountMin(n int) *CountMin {
	if n < 16 {
		n = 16
	}
	// Round the number of counters per row up to a power of two ≥ n.
	size := 1
	for size < n {
		size *= 2
	}
	cm := &CountMin{mask: uint64(size - 1), sample: uint64(10 * size)}
	for i := range cm.rows {
		cm.rows[i] = make([]uint8, size/2+1)
	}
	return cm
}

func (cm *CountMin) counter(row int, idx uint64) uint8 {
	b := cm.rows[row][idx/2]
	if idx%2 == 0 {
		return b & 0x0f
	}
	return b >> 4
}

func (cm *CountMin) setCounter(row int, idx uint64, v uint8) {
	p := &cm.rows[row][idx/2]
	if idx%2 == 0 {
		*p = (*p &^ 0x0f) | (v & 0x0f)
	} else {
		*p = (*p &^ 0xf0) | (v << 4)
	}
}

// Add increments the counters for key, saturating at 15, and ages the
// sketch when the reset window is exhausted.
func (cm *CountMin) Add(key uint64) {
	for row := range cm.rows {
		idx := Hash(key, uint64(row)+1) & cm.mask
		if c := cm.counter(row, idx); c < 15 {
			cm.setCounter(row, idx, c+1)
		}
	}
	cm.applied++
	if cm.applied >= cm.sample {
		cm.reset()
	}
}

// Estimate returns the estimated frequency of key (0..15).
func (cm *CountMin) Estimate(key uint64) uint8 {
	est := uint8(15)
	for row := range cm.rows {
		idx := Hash(key, uint64(row)+1) & cm.mask
		if c := cm.counter(row, idx); c < est {
			est = c
		}
	}
	return est
}

// reset halves every counter (TinyLFU aging).
func (cm *CountMin) reset() {
	for row := range cm.rows {
		for i, b := range cm.rows[row] {
			// Halve both packed 4-bit counters.
			cm.rows[row][i] = (b >> 1) & 0x77
		}
	}
	cm.applied = 0
}

// Bloom is a standard Bloom filter over uint64 keys.
type Bloom struct {
	bits   []uint64
	mask   uint64
	hashes int
	count  int
}

// NewBloom returns a filter sized for n keys at the given target false
// positive rate.
func NewBloom(n int, fpRate float64) *Bloom {
	if n < 1 {
		n = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	mBits := int(math.Ceil(-float64(n) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	size := 64
	for size < mBits {
		size *= 2
	}
	k := int(math.Round(float64(size) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 8 {
		k = 8
	}
	return &Bloom{bits: make([]uint64, size/64), mask: uint64(size - 1), hashes: k}
}

// Add inserts key into the filter.
func (b *Bloom) Add(key uint64) {
	for i := 0; i < b.hashes; i++ {
		bit := Hash(key, uint64(i)+101) & b.mask
		b.bits[bit/64] |= 1 << (bit % 64)
	}
	b.count++
}

// Contains reports whether key may be in the filter (false positives
// possible, false negatives not).
func (b *Bloom) Contains(key uint64) bool {
	for i := 0; i < b.hashes; i++ {
		bit := Hash(key, uint64(i)+101) & b.mask
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Count returns the number of Add calls since creation or the last Clear.
func (b *Bloom) Count() int { return b.count }

// Clear empties the filter.
func (b *Bloom) Clear() {
	for i := range b.bits {
		b.bits[i] = 0
	}
	b.count = 0
}

// Doorkeeper is a Bloom filter placed in front of a count-min sketch: the
// first occurrence of a key is recorded in the filter; only repeat
// occurrences reach the sketch. It clears itself alongside sketch aging.
type Doorkeeper struct {
	bloom *Bloom
	cap   int
}

// NewDoorkeeper returns a doorkeeper sized for n keys; it self-clears after
// n insertions to bound staleness.
func NewDoorkeeper(n int) *Doorkeeper {
	if n < 1 {
		n = 1
	}
	return &Doorkeeper{bloom: NewBloom(n, 0.01), cap: n}
}

// Allow records key and reports whether it had been seen before (true means
// the caller should count this occurrence in its sketch).
func (d *Doorkeeper) Allow(key uint64) bool {
	if d.bloom.Contains(key) {
		return true
	}
	if d.bloom.Count() >= d.cap {
		d.bloom.Clear()
	}
	d.bloom.Add(key)
	return false
}
