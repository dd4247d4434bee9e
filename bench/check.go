package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand/v2"
	"time"
)

// Values are self-describing so that every hit can be checked without a
// shadow copy of the data: key hash, version, total length, filler, and a
// CRC over all of it.
//
//	0   8  FNV-1a of the key
//	8   4  version (per-key SET counter of the owning client)
//	12  4  total length
//	16  .. filler
//	-4  4  CRC-32 (IEEE) of everything before it
const (
	valueHeader = 16
	minValueLen = valueHeader + 4
	maxValueLen = 4096
)

// filler is the pool value bodies are cut from; its contents are fixed so
// payload bytes never depend on the run.
var filler = func() []byte {
	b := make([]byte, 2*maxValueLen)
	rng := rand.New(rand.NewPCG(0x5eed, 0xf111))
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	return b
}()

func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// putValue writes the n-byte value of (hash, version) into dst[:n].
func putValue(dst []byte, hash uint64, version uint32, n int) []byte {
	dst = dst[:n]
	binary.LittleEndian.PutUint64(dst[0:], hash)
	binary.LittleEndian.PutUint32(dst[8:], version)
	binary.LittleEndian.PutUint32(dst[12:], uint32(n))
	off := int((hash ^ uint64(version)) % maxValueLen)
	copy(dst[valueHeader:n-4], filler[off:])
	binary.LittleEndian.PutUint32(dst[n-4:], crc32.ChecksumIEEE(dst[:n-4]))
	return dst
}

// parseValue checks a payload against the key it was fetched under and
// returns the version it carries.
func parseValue(hash uint64, v []byte) (version uint32, ok bool) {
	n := len(v)
	if n < minValueLen ||
		binary.LittleEndian.Uint64(v[0:]) != hash ||
		binary.LittleEndian.Uint32(v[12:]) != uint32(n) ||
		binary.LittleEndian.Uint32(v[n-4:]) != crc32.ChecksumIEEE(v[:n-4]) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(v[8:]), true
}

// store is what a virtual client drives: the pipelined client for the
// served workloads, the cache facade for embedded-churn, a lying fake in
// the checker's own test.
type store interface {
	Get(key string) ([]byte, bool, error)
	Set(key string, value []byte, ttl time.Duration) (bool, error)
	Delete(key string) (bool, error)
}

// keyState is what the owning client knows about one of its keys. Only
// the owner writes a key and the owner is synchronous, so at every GET the
// state is exact: version is the last acknowledged SET, deleted says an
// acknowledged DELETE came after it.
type keyState struct {
	version  uint32
	deleted  bool
	expireAt int64 // unix ns by which a TTL'd value must be gone; 0 = none
}

// ttlSlack is how long past its TTL a value may still be served before
// the checker calls it a lie (the wire carries whole seconds).
const ttlSlack = time.Second

// failures counts every way an op can fail. All of them land in the
// result's failed count and so in fail_ratio.
type failures struct {
	errors    uint64 // transport or server error, refused, timed out
	integrity uint64 // payload names another key, wrong length, bad CRC
	lies      uint64 // stale version, hit after delete, hit past TTL, hit on a key never stored
	notStored uint64 // SET declined
}

func (f failures) total() uint64 { return f.errors + f.integrity + f.lies + f.notStored }

func (f *failures) add(o failures) {
	f.errors += o.errors
	f.integrity += o.integrity
	f.lies += o.lies
	f.notStored += o.notStored
}

// checkHit judges one GET hit. sent is when the GET was issued.
func (f *failures) checkHit(st *keyState, hash uint64, v []byte, sent int64) {
	ver, ok := parseValue(hash, v)
	switch {
	case !ok:
		f.integrity++
	case st == nil, st.deleted, ver != st.version,
		st.expireAt != 0 && sent > st.expireAt+int64(ttlSlack):
		f.lies++
	}
}
