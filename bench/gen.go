package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
)

// The request stream. A workload is a fixed number of virtual clients,
// each with its own seeded substream over its own slice of the key space
// (client c of C owns the keys whose id is c mod C). Disjoint ownership is
// what lets the checker (check.go) hold every reply to "the last value I
// was told is stored": nobody else writes a client's keys.
//
// An op is one packed uint32 so an 8M-op stream costs 32 MB, not 128.

type opKind uint32

const (
	opGet     opKind = iota // GET; a miss is just a miss
	opGetFill               // GET, then SET the value on a miss (look-aside)
	opSet                   // SET, no TTL
	opSetTTL                // SET with op.ttl() seconds
	opDelete                // DELETE
)

// op packs kind (3 bits), TTL seconds (4 bits) and the client-local key
// index (25 bits).
type op uint32

func mkOp(k opKind, ttl uint32, local uint32) op {
	return op(uint32(k) | ttl<<3 | local<<7)
}

func (o op) kind() opKind  { return opKind(o & 7) }
func (o op) ttl() uint32   { return uint32(o>>3) & 15 }
func (o op) local() uint32 { return uint32(o >> 7) }

// zipf samples ranks in [0, n) with P(rank) ∝ 1/(rank+1)^alpha by binary
// search over the exact cumulative weights. It lives here, not in
// internal/workload, so that no later change to the repository can move
// the benchmark's inputs.
type zipf struct {
	cdf []float64
}

func newZipf(n int, alpha float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(rng *rand.Rand) uint32 {
	u := unitFloat(rng)
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return uint32(i)
}

// unitFloat is a uniform float64 in [0, 1) derived from the generator's
// raw 64-bit output, so the stream does not depend on how a library
// version turns bits into floats.
func unitFloat(rng *rand.Rand) float64 {
	return float64(rng.Uint64()>>11) / (1 << 53)
}

func intn(rng *rand.Rand, n int) int {
	return int(rng.Uint64() % uint64(n))
}

// clientRNG is the substream generator of one virtual client: the same
// (seed, workload, client) always yields the same requests.
func clientRNG(seed uint64, workload string, client int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewPCG(seed, h.Sum64()+uint64(client)))
}

// zipfMix is the shape of the three served workloads: Zipf over the
// client's keys, an op drawn from fixed shares. absentShare of the GETs go
// to keys that are never stored (locals in [keys, 2*keys)), which keeps
// miss_ratio a non-zero, seed-stable number on a workload whose resident
// keys always hit.
type zipfMix struct {
	keys        int     // keys per client
	alpha       float64 // Zipf skew
	setShare    float64
	ttlShare    float64 // share of SETs that carry a 2-10 s TTL
	delShare    float64
	fill        bool // GETs set on miss
	absentShare float64
}

func (m zipfMix) generate(rng *rand.Rand, n int) []op {
	z := newZipf(m.keys, m.alpha)
	get := opGet
	if m.fill {
		get = opGetFill
	}
	ops := make([]op, n)
	for i := range ops {
		u := unitFloat(rng)
		key := z.sample(rng)
		switch {
		case u < m.setShare:
			if unitFloat(rng) < m.ttlShare {
				ops[i] = mkOp(opSetTTL, uint32(2+intn(rng, 9)), key)
			} else {
				ops[i] = mkOp(opSet, 0, key)
			}
		case u < m.setShare+m.delShare:
			ops[i] = mkOp(opDelete, 0, key)
		default:
			if m.absentShare > 0 && unitFloat(rng) < m.absentShare {
				key = uint32(m.keys + intn(rng, m.keys))
			}
			ops[i] = mkOp(get, 0, key)
		}
	}
	return ops
}

// churn interleaves the three SNIPPETS.md fido shapes, scaled from their
// 10k-entry cache to this one: a one-hit-wonder mix over a Zipf(0.7) hot
// set slightly larger than the cache, burst scans through cold keys, and a
// loop with pollution. Every op is a look-aside get-then-set-on-miss.
//
// Local key layout: [0, hot) hot set, [hot, hot+loop) loop set,
// [.., +scan) scan region, and from bounded() upward the unique ids
// (one-hit wonders and pollution), which replay re-bases every lap so they
// stay unique for as long as the stream is cycled.
type churn struct {
	hot, loop, scan int
}

func (c churn) bounded() int { return c.hot + c.loop + c.scan }

func (c churn) generate(rng *rand.Rand, n int) (ops []op, uniques uint32) {
	zHot := newZipf(c.hot, 0.7)
	ops = make([]op, 0, n)
	loopPos := 0
	unique := func() uint32 {
		uniques++
		return uint32(c.bounded()) + uniques - 1
	}
	put := func(local uint32) { ops = append(ops, mkOp(opGetFill, 0, local)) }
	for len(ops) < n {
		// One-hit-wonder mix: 30% unique ids, 70% Zipf over the hot set.
		for j, run := 0, 1000+intn(rng, 500); j < run; j++ {
			if unitFloat(rng) < 0.3 {
				put(unique())
			} else {
				put(zHot.sample(rng))
			}
		}
		// Burst scan: one time in five, 500 consecutive cold keys.
		if unitFloat(rng) < 0.2 {
			at := intn(rng, c.scan)
			for j := 0; j < 500; j++ {
				put(uint32(c.hot + c.loop + (at+j)%c.scan))
			}
		}
		// Loop with pollution: 80% the next key of the loop, 20% unique.
		for j := 0; j < 1000; j++ {
			if j%10 < 8 {
				put(uint32(c.hot + loopPos))
				loopPos = (loopPos + 1) % c.loop
			} else {
				put(unique())
			}
		}
	}
	return ops[:n], uniques
}

// stream is a workload's whole input: one substream per virtual client.
type stream struct {
	clients [][]op
	// bounded is the number of client-local keys that recur (and are
	// pre-rendered); locals at or above it are unique ids.
	bounded int
	// uniques[c] is how many unique ids client c's substream uses per lap.
	uniques []uint32
	// keys[c][l] is client c's recurring key l, rendered once; hashes is
	// its FNV-1a, which values carry.
	keys   [][]string
	hashes [][]uint64
}

// renderKey is the 16-byte key of a global key id.
func renderKey(id uint64) string {
	const hex = "0123456789abcdef"
	var b [16]byte
	b[0] = 'k'
	for i := 15; i >= 1; i-- {
		b[i] = hex[id&15]
		id >>= 4
	}
	return string(b[:])
}

// render fills in the recurring keys: client c of n owns the ids c mod n.
func (s *stream) render() {
	n := len(s.clients)
	s.keys, s.hashes = make([][]string, n), make([][]uint64, n)
	for c := range s.keys {
		s.keys[c], s.hashes[c] = make([]string, s.bounded), make([]uint64, s.bounded)
		for l := range s.keys[c] {
			s.keys[c][l] = renderKey(uint64(l)*uint64(n) + uint64(c))
			s.hashes[c][l] = keyHash(s.keys[c][l])
		}
	}
}

// key resolves a client-local index to its key and the key's hash. Unique
// ids (recurring false) are re-based by the lap, so a cycled stream never
// repeats one.
func (s *stream) key(client int, local uint32, lap uint64) (key string, hash uint64, recurring bool) {
	if int(local) < s.bounded {
		return s.keys[client][local], s.hashes[client][local], true
	}
	id := uint64(local) + lap*uint64(s.uniques[client])
	key = renderKey(id*uint64(len(s.clients)) + uint64(client))
	return key, keyHash(key), false
}

// hash fingerprints the stream: the golden test pins it per workload, so a
// change to a generator cannot pass unnoticed.
func (s *stream) hash() uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, ops := range s.clients {
		for _, o := range ops {
			binary.LittleEndian.PutUint32(b[:], uint32(o))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
