package concurrent

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"s3fifo/internal/proto"
)

func TestEntryIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(entry[string]{}); got > 64 {
		t.Fatalf("entry[string] is %d bytes, want at most 64", got)
	}
}

// TestValueTooLongForVlenIsRefused: a value whose length does not fit
// vlen's 32 bits is refused as too large, even where its charge fits,
// rather than stored with a truncated length and read back short.
func TestValueTooLongForVlenIsRefused(t *testing.T) {
	if proto.RaceEnabled || strconv.IntSize < 64 {
		t.Skip("needs a 64-bit int, and checkptr rejects a slice longer than its allocation")
	}
	var b byte
	huge := unsafe.Slice(&b, 1<<32) // never read: set refuses it on its length
	kv := NewKV(KVConfig{MaxBytes: 1 << 40, Shards: 1})
	kv.Set("k", []byte("v"), 0)
	if kv.Set("k", huge, 0) || kv.Add("k2", huge, 0) {
		t.Fatal("a value of 4 GiB was accepted")
	}
	if _, ok := kv.Get("k"); ok || kv.Len() != 0 {
		t.Fatalf("the refused overwrite left the old value readable (Len %d)", kv.Len())
	}
}

// TestAllocGateOverwrite: an in-place overwrite of a resident key
// allocates nothing on either front. The index is probed before an entry
// is allocated, and the entry points at the caller's value rather than at
// a copy of its slice header. `make bench-allocs` runs it.
func TestAllocGateOverwrite(t *testing.T) {
	if proto.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	vals := [2][]byte{make([]byte, 100), make([]byte, 100)}
	kv := NewKV(KVConfig{MaxBytes: 1 << 20})
	kv.Set("resident", vals[0], 0)
	s3 := NewS3FIFO(1024)
	s3.Set(7, vals[0])
	for name, set := range map[string]func(v []byte){
		"kv":     func(v []byte) { kv.Set("resident", v, 0) },
		"s3fifo": func(v []byte) { s3.Set(7, v) },
	} {
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() { set(vals[i&1]); i++ }); allocs != 0 {
			t.Errorf("%s: an in-place overwrite allocates %v times, want 0", name, allocs)
		}
	}
}

// TestOverwriteReleasesTheOldValue: once a resident key is overwritten in
// place, the engine references the new value only, so the value it was
// first given is garbage.
func TestOverwriteReleasesTheOldValue(t *testing.T) {
	kv := NewKV(KVConfig{MaxBytes: 1 << 20, Shards: 1})
	var finalized atomic.Bool
	setWatched(kv, &finalized)
	before, _ := kv.index.get(hashKV("k"))
	kv.Set("k", make([]byte, 64), 0)
	if after, _ := kv.index.get(hashKV("k")); after != before {
		t.Fatal("the same-length overwrite did not take the in-place path")
	}
	for deadline := time.Now().Add(5 * time.Second); !finalized.Load() && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if !finalized.Load() {
		t.Fatal("the first value of an overwritten key is still referenced")
	}
	runtime.KeepAlive(kv)
}

// setWatched stores a value that reports its collection, in its own frame
// so that no stack slot of the test keeps it.
//
//go:noinline
func setWatched(kv *KV, finalized *atomic.Bool) {
	v := make([]byte, 64)
	runtime.SetFinalizer(&v[0], func(*byte) { finalized.Store(true) })
	kv.Set("k", v, 0)
}

// tornKeys are the keys the torn-value test overwrites; each has its own
// fixed value length, so every overwrite of it is in place.
const tornKeys = 64

func tornLen(k int) int { return 8 * (4 + k%13) }

// tornPayload is self-describing: every 8-byte word is key<<32 | version.
func tornPayload(k int, version uint32) []byte {
	v := make([]byte, tornLen(k))
	for i := 0; i < len(v); i += 8 {
		binary.LittleEndian.PutUint64(v[i:], uint64(k)<<32|uint64(version))
	}
	return v
}

// tornCheck reports what is wrong with v as a read of key k, or "".
func tornCheck(k int, v []byte) string {
	if len(v) != tornLen(k) {
		return fmt.Sprintf("key %d: read %d bytes, its values are %d", k, len(v), tornLen(k))
	}
	w0 := binary.LittleEndian.Uint64(v)
	if int(w0>>32) != k {
		return fmt.Sprintf("key %d: read a value of key %d", k, w0>>32)
	}
	for i := 8; i < len(v); i += 8 {
		if w := binary.LittleEndian.Uint64(v[i:]); w != w0 {
			return fmt.Sprintf("key %d: torn read, versions %d and %d in one value", k, uint32(w0), uint32(w))
		}
	}
	return ""
}

// TestOverwriteNeverTearsValues: writers overwrite resident keys in place
// with same-length, self-describing values while readers on every read
// path check that each value they get is one whole value of the right
// length. Runs under -race in `make race`.
func TestOverwriteNeverTearsValues(t *testing.T) {
	kv := NewKV(KVConfig{MaxBytes: 1 << 20, Shards: 4})
	s3 := NewS3FIFOSharded(4*tornKeys, 4)
	var inPlace [tornKeys]*entry[string]
	for k := 0; k < tornKeys; k++ {
		kv.Set(fmt.Sprint(k), tornPayload(k, 0), 0)
		s3.Set(uint64(k), tornPayload(k, 0))
		inPlace[k], _ = kv.index.get(hashKV(fmt.Sprint(k)))
	}
	var (
		done, reads atomic.Int64
		writers     sync.WaitGroup
		readers     sync.WaitGroup
	)
	fail := func(msg string) {
		if msg != "" {
			t.Error(msg)
			done.Store(1)
		}
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := uint32(1); i <= 20000 && done.Load() == 0; i++ {
				k := (int(i)*7 + w*31) % tornKeys
				kv.Set(fmt.Sprint(k), tornPayload(k, i), 0)
				s3.Set(uint64(k), tornPayload(k, i))
			}
		}(w)
	}
	read := map[string]func(k int){
		"KV.Get": func(k int) {
			v, ok := kv.Get(fmt.Sprint(k))
			if !ok {
				fail(fmt.Sprintf("KV.Get: resident key %d missed", k))
			}
			fail(tornCheck(k, v))
		},
		"KV.GetStale": func(k int) {
			v, _, ok := kv.GetStale(fmt.Sprint(k))
			if !ok {
				fail(fmt.Sprintf("KV.GetStale: resident key %d missed", k))
			}
			fail(tornCheck(k, v))
		},
		"KV.Range": func(int) {
			kv.Range(func(key string, v []byte, _ int64) bool {
				k, _ := strconv.Atoi(key)
				fail(tornCheck(k, v))
				return true
			})
		},
		"S3FIFO.Get": func(k int) {
			v, ok := s3.Get(uint64(k))
			if !ok {
				fail(fmt.Sprintf("S3FIFO.Get: resident key %d missed", k))
			}
			fail(tornCheck(k, v))
		},
	}
	for _, r := range read {
		readers.Add(1)
		go func(r func(int)) {
			defer readers.Done()
			for i := 0; done.Load() == 0; i++ {
				r(i % tornKeys)
				reads.Add(1)
			}
		}(r)
	}
	writers.Wait()
	done.Store(1)
	readers.Wait()
	t.Logf("%d reads checked", reads.Load())
	for k := 0; k < tornKeys; k++ {
		if e, _ := kv.index.get(hashKV(fmt.Sprint(k))); e != inPlace[k] {
			t.Fatalf("key %d was re-entered: the overwrites did not take the in-place path", k)
		}
	}
}

// TestResizingOverwriteTakesTheLockedPath: an in-place overwrite needs the
// new value to be exactly as long as the entry's, since a lock-free reader
// pairs the entry's fixed length with whichever pointer it loads. Any
// other overwrite retires the entry and re-enters the key through the
// locked path, and reads back the new value. KV charges len(key) +
// len(value), so there a change of length was already a change of charge;
// with an eviction hook every KV overwrite is locked anyway.
//
// The deviation is on the uint64 S3FIFO front, which charges one unit per
// object: a value of a different length used to be swapped in place,
// keeping the entry's frequency and queue slot. It now re-enters the key
// as a new entry at frequency 0, as a KV change of charge does.
func TestResizingOverwriteTakesTheLockedPath(t *testing.T) {
	s3 := NewS3FIFOSharded(64, 1)
	s3.Set(1, []byte("a"))
	for i := 0; i < 5; i++ {
		s3.Get(1)
	}
	before, _ := s3.index.get(1)
	s3.Set(1, []byte("bb"))
	after, _ := s3.index.get(1)
	if after == before || after.freq.Load() != 0 {
		t.Errorf("s3fifo: a resized overwrite stayed in place (%v) or kept frequency %d", after == before, after.freq.Load())
	}
	if v, ok := s3.Get(1); !ok || string(v) != "bb" {
		t.Errorf("s3fifo: read %q, %v after a resized overwrite", v, ok)
	}
	s3.Set(1, []byte("cc"))
	if e, _ := s3.index.get(1); e != after || e.freq.Load() != 1 {
		t.Errorf("s3fifo: a same-length overwrite did not stay in place at its frequency")
	}
	if s3.Len() != 1 || s3.Used() != 1 {
		t.Errorf("s3fifo: Len %d Used %d after overwrites, want 1 and 1", s3.Len(), s3.Used())
	}

	hooked := NewKV(KVConfig{MaxBytes: 1 << 10, Shards: 1, OnEvict: func(Eviction) {}})
	hooked.Set("k", []byte("a"), 0)
	old, _ := hooked.index.get(hashKV("k"))
	hooked.Set("k", []byte("bbb"), 0)
	cur, _ := hooked.index.get(hashKV("k"))
	if v, ok := hooked.Get("k"); cur == old || !ok || string(v) != "bbb" {
		t.Errorf("hooked kv: read %q, %v (in place %v) after a resized overwrite", v, ok, cur == old)
	}
	if hooked.Len() != 1 || hooked.Used() != uint64(len("k")+len("bbb")) {
		t.Errorf("hooked kv: Len %d Used %d after overwrites", hooked.Len(), hooked.Used())
	}
}
