// Package filetier is the small-deployment second tier: a bucketed
// file-persist store in the spirit of sfcache's persist_file layer. Keys
// hash into a fixed set of buckets, each bucket is one append-only file
// of CRC-checked records, and an in-memory index maps key -> (bucket,
// offset). When a bucket outgrows its share of the byte budget it is
// compacted in place: live records are rewritten newest-preserved and
// the oldest are dropped (per-bucket FIFO eviction).
//
// Compared to internal/flash there is no segment log, no reclamation
// generation, and no read-frequency tracking — just files that survive
// a restart. That trades write amplification (compaction rewrites whole
// buckets) for simplicity, which is the right trade when the tier holds
// megabytes, not terabytes. The store is safe for concurrent use via
// one store mutex, and runs on the same faultfs seam as the flash store
// so the fault-injection suite drives its failure paths too.
package filetier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"s3fifo/internal/faultfs"
	"s3fifo/internal/sketch"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("filetier: store closed")

// Record layout, little-endian (same shape as the flash store's):
//
//	magic   uint32
//	flags   uint8   bit 0 = tombstone
//	klen    uint16
//	vlen    uint32
//	expires int64
//	crc     uint32  CRC32 (IEEE) of flags..expires plus key and value
//	key, value
const (
	recordMagic = 0x53465431 // "SFT1"
	headerSize  = 4 + 1 + 2 + 4 + 8 + 4
	flagDead    = 1

	// MaxKeyLen and MaxValueLen bound one record.
	MaxKeyLen   = 1 << 16
	MaxValueLen = 1 << 30
)

// Options configure Open.
type Options struct {
	// Dir holds the bucket files; created if missing. Required.
	Dir string
	// MaxBytes caps the on-disk footprint, split evenly across buckets.
	// Required.
	MaxBytes uint64
	// Buckets is the number of bucket files (default 64, clamped so each
	// bucket holds at least 4 KiB).
	Buckets int
	// FS is the filesystem seam. Default faultfs.OS().
	FS faultfs.FS
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, fmt.Errorf("filetier: Dir is required")
	}
	if o.MaxBytes == 0 {
		return o, fmt.Errorf("filetier: MaxBytes is required")
	}
	if o.Buckets <= 0 {
		o.Buckets = 64
	}
	for o.Buckets > 1 && o.MaxBytes/uint64(o.Buckets) < 4<<10 {
		o.Buckets /= 2
	}
	if o.FS == nil {
		o.FS = faultfs.OS()
	}
	return o, nil
}

// Stats are cumulative counters since Open.
type Stats struct {
	Gets, Hits, Misses uint64
	Puts, Deletes      uint64
	// BytesWritten counts every byte written to bucket files, compaction
	// included; GCBytes is the compaction subset.
	BytesWritten uint64
	GCBytes      uint64
	// Compactions counts bucket rewrites; Dropped the live records FIFO-
	// evicted by them.
	Compactions uint64
	Dropped     uint64
	// RecoveredRecords counts index entries rebuilt by the last Open.
	RecoveredRecords uint64
}

type frec struct {
	bucket  uint32
	off     uint64
	klen    uint16
	vlen    uint32
	expires int64
}

func (r frec) size() uint64 { return headerSize + uint64(r.klen) + uint64(r.vlen) }

type bucket struct {
	path string
	f    faultfs.File
	size uint64 // append offset
	live uint64 // bytes of live records
}

// Store is a bucketed file-persist store. Create one with Open.
type Store struct {
	mu      sync.Mutex
	opts    Options
	perB    uint64 // byte budget per bucket
	buckets []*bucket
	index   map[string]frec
	dirty   map[uint32]struct{} // buckets written since the last Sync
	stats   Stats
	closed  bool
	now     func() int64
}

// Open opens (or creates) a store in opts.Dir, rebuilding the index from
// the bucket files.
func Open(opts Options) (*Store, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("filetier: %w", err)
	}
	s := &Store{
		opts:  opts,
		perB:  opts.MaxBytes / uint64(opts.Buckets),
		index: make(map[string]frec),
		dirty: make(map[uint32]struct{}),
		now:   func() int64 { return time.Now().UnixNano() },
	}
	for i := 0; i < opts.Buckets; i++ {
		path := filepath.Join(opts.Dir, fmt.Sprintf("bucket-%04d.dat", i))
		f, err := opts.FS.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			s.closeAll()
			return nil, fmt.Errorf("filetier: %w", err)
		}
		b := &bucket{path: path, f: f}
		s.buckets = append(s.buckets, b)
		if err := s.recoverBucket(uint32(i), b); err != nil {
			s.closeAll()
			return nil, err
		}
	}
	return s, nil
}

// bucketFor hashes key to its bucket (FNV-1a, unmixed).
func (s *Store) bucketFor(key string) uint32 {
	return uint32(sketch.FNV1a(key) % uint64(len(s.buckets)))
}

// recoverBucket scans one bucket file, indexing every verifiable record
// (newest per key wins, tombstones erase) and truncating a torn tail.
func (s *Store) recoverBucket(bi uint32, b *bucket) error {
	data, err := s.opts.FS.ReadFile(b.path)
	if err != nil {
		return fmt.Errorf("filetier: recover %s: %w", b.path, err)
	}
	now := s.now()
	off := uint64(0)
	for off+headerSize <= uint64(len(data)) {
		hdr := data[off:]
		if binary.LittleEndian.Uint32(hdr[0:4]) != recordMagic {
			break
		}
		flags := hdr[4]
		klen := binary.LittleEndian.Uint16(hdr[5:7])
		vlen := binary.LittleEndian.Uint32(hdr[7:11])
		expires := int64(binary.LittleEndian.Uint64(hdr[11:19]))
		crc := binary.LittleEndian.Uint32(hdr[19:23])
		total := headerSize + uint64(klen) + uint64(vlen)
		if vlen > MaxValueLen || off+total > uint64(len(data)) {
			break
		}
		body := data[off+headerSize : off+total]
		check := crc32.ChecksumIEEE(hdr[4:19])
		check = crc32.Update(check, crc32.IEEETable, body)
		if check != crc {
			break
		}
		key := string(body[:klen])
		s.dropIndex(key)
		if flags&flagDead == 0 && (expires == 0 || expires > now) {
			s.setIndex(key, frec{bucket: bi, off: off, klen: klen, vlen: vlen, expires: expires})
			s.stats.RecoveredRecords++
		}
		off += total
	}
	if off < uint64(len(data)) {
		if err := s.opts.FS.Truncate(b.path, int64(off)); err != nil {
			return fmt.Errorf("filetier: truncate %s: %w", b.path, err)
		}
	}
	b.size = off
	return nil
}

func (s *Store) setIndex(key string, r frec) {
	s.dropIndex(key)
	s.index[key] = r
	s.buckets[r.bucket].live += r.size()
}

func (s *Store) dropIndex(key string) {
	if old, ok := s.index[key]; ok {
		s.buckets[old.bucket].live -= old.size()
		delete(s.index, key)
	}
}

func (s *Store) closeAll() {
	for _, b := range s.buckets {
		if b.f != nil {
			b.f.Close()
		}
	}
}

// encode builds one record.
func encode(key string, value []byte, expires int64, flags uint8) []byte {
	buf := make([]byte, headerSize+len(key)+len(value))
	binary.LittleEndian.PutUint32(buf[0:4], recordMagic)
	buf[4] = flags
	binary.LittleEndian.PutUint16(buf[5:7], uint16(len(key)))
	binary.LittleEndian.PutUint32(buf[7:11], uint32(len(value)))
	binary.LittleEndian.PutUint64(buf[11:19], uint64(expires))
	copy(buf[headerSize:], key)
	copy(buf[headerSize+len(key):], value)
	crc := crc32.ChecksumIEEE(buf[4:19])
	crc = crc32.Update(crc, crc32.IEEETable, buf[headerSize:])
	binary.LittleEndian.PutUint32(buf[19:23], crc)
	return buf
}

// appendLocked appends one record to bucket bi.
func (s *Store) appendLocked(bi uint32, rec []byte, gc bool) (uint64, error) {
	b := s.buckets[bi]
	if _, err := b.f.WriteAt(rec, int64(b.size)); err != nil {
		return 0, fmt.Errorf("filetier: append: %w", err)
	}
	off := b.size
	b.size += uint64(len(rec))
	s.stats.BytesWritten += uint64(len(rec))
	if gc {
		s.stats.GCBytes += uint64(len(rec))
	}
	s.dirty[bi] = struct{}{}
	return off, nil
}

// Put stores value under key with an optional absolute expiry.
func (s *Store) Put(key string, value []byte, expires int64) error {
	if len(key) == 0 || len(key) >= MaxKeyLen {
		return fmt.Errorf("filetier: key length %d out of range", len(key))
	}
	if len(value) > MaxValueLen {
		return fmt.Errorf("filetier: value too large (%d bytes)", len(value))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	bi := s.bucketFor(key)
	rec := encode(key, value, expires, 0)
	if uint64(len(rec)) > s.perB {
		return fmt.Errorf("filetier: record larger than bucket budget (%d > %d)", len(rec), s.perB)
	}
	off, err := s.appendLocked(bi, rec, false)
	if err != nil {
		return err
	}
	s.stats.Puts++
	s.setIndex(key, frec{bucket: bi, off: off, klen: uint16(len(key)), vlen: uint32(len(value)), expires: expires})
	if s.buckets[bi].size > s.perB {
		return s.compactLocked(bi)
	}
	return nil
}

// compactLocked rewrites bucket bi in place, keeping live unexpired
// records (newest-first priority: when the live set itself exceeds the
// budget, the oldest-inserted records are dropped — per-bucket FIFO).
func (s *Store) compactLocked(bi uint32) error {
	b := s.buckets[bi]
	data := make([]byte, b.size)
	if _, err := b.f.ReadAt(data, 0); err != nil {
		return fmt.Errorf("filetier: compact read %s: %w", b.path, err)
	}

	// Collect live records in insertion order.
	type liveRec struct {
		key  string
		body []byte // full encoded record
		r    frec
	}
	var live []liveRec
	now := s.now()
	off := uint64(0)
	for off+headerSize <= uint64(len(data)) {
		hdr := data[off:]
		klen := binary.LittleEndian.Uint16(hdr[5:7])
		vlen := binary.LittleEndian.Uint32(hdr[7:11])
		total := headerSize + uint64(klen) + uint64(vlen)
		if binary.LittleEndian.Uint32(hdr[0:4]) != recordMagic || off+total > uint64(len(data)) {
			break
		}
		body := data[off+headerSize : off+total]
		key := string(body[:klen])
		if r, ok := s.index[key]; ok && r.bucket == bi && r.off == off {
			if r.expires != 0 && r.expires <= now {
				s.dropIndex(key)
			} else {
				live = append(live, liveRec{key: key, body: data[off : off+total], r: r})
			}
		}
		off += total
	}

	// FIFO eviction: drop oldest until the live set fits in 3/4 of the
	// budget, leaving headroom before the next compaction.
	budget := s.perB * 3 / 4
	var liveBytes uint64
	for _, lr := range live {
		liveBytes += uint64(len(lr.body))
	}
	drop := 0
	for liveBytes > budget && drop < len(live) {
		liveBytes -= uint64(len(live[drop].body))
		s.dropIndex(live[drop].key)
		s.stats.Dropped++
		drop++
	}
	live = live[drop:]

	// Rewrite in place: truncate, then append the survivors. A crash in
	// this window loses the bucket's tail — acceptable for a cache, and
	// the CRC scan on the next Open truncates any torn state away.
	if err := b.f.Sync(); err != nil {
		return fmt.Errorf("filetier: compact sync %s: %w", b.path, err)
	}
	if err := s.opts.FS.Truncate(b.path, 0); err != nil {
		return fmt.Errorf("filetier: compact truncate %s: %w", b.path, err)
	}
	b.size = 0
	b.live = 0
	for _, lr := range live {
		off, err := s.appendLocked(bi, lr.body, true)
		if err != nil {
			return err
		}
		nr := lr.r
		nr.off = off
		s.index[lr.key] = nr
		b.live += nr.size()
	}
	s.stats.Compactions++
	return nil
}

// Get returns the value and expiry stored for key.
func (s *Store) Get(key string) (value []byte, expires int64, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Gets++
	if s.closed {
		return nil, 0, false, ErrClosed
	}
	r, found := s.index[key]
	if !found {
		s.stats.Misses++
		return nil, 0, false, nil
	}
	if r.expires != 0 && r.expires <= s.now() {
		s.dropIndex(key)
		s.stats.Misses++
		return nil, 0, false, nil
	}
	buf := make([]byte, r.size())
	if _, err := s.buckets[r.bucket].f.ReadAt(buf, int64(r.off)); err != nil {
		s.dropIndex(key)
		s.stats.Misses++
		return nil, 0, false, fmt.Errorf("filetier: read: %w", err)
	}
	crc := binary.LittleEndian.Uint32(buf[19:23])
	check := crc32.ChecksumIEEE(buf[4:19])
	check = crc32.Update(check, crc32.IEEETable, buf[headerSize:])
	if binary.LittleEndian.Uint32(buf[0:4]) != recordMagic || crc != check {
		s.dropIndex(key)
		s.stats.Misses++
		return nil, 0, false, nil // corrupt record: a miss, not device sickness
	}
	s.stats.Hits++
	return buf[headerSize+uint64(r.klen):], r.expires, true, nil
}

// Contains reports whether key has a live, unexpired record.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	r, ok := s.index[key]
	if !ok {
		return false
	}
	if r.expires != 0 && r.expires <= s.now() {
		s.dropIndex(key)
		return false
	}
	return true
}

// Delete removes key, appending a tombstone so the delete survives
// restart. It reports whether the key was present.
func (s *Store) Delete(key string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	r, ok := s.index[key]
	if !ok {
		return false, nil
	}
	s.dropIndex(key)
	s.stats.Deletes++
	if _, err := s.appendLocked(r.bucket, encode(key, nil, 0, flagDead), false); err != nil {
		return true, err
	}
	if s.buckets[r.bucket].size > s.perB {
		return true, s.compactLocked(r.bucket)
	}
	return true, nil
}

// Sync flushes every bucket written since the last Sync. With nothing
// dirty it syncs one bucket anyway so the call still probes the device
// (the breaker depends on Sync exercising real I/O).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if len(s.dirty) == 0 {
		return s.buckets[0].f.Sync()
	}
	for bi := range s.dirty {
		if err := s.buckets[bi].f.Sync(); err != nil {
			return err
		}
		delete(s.dirty, bi)
	}
	return nil
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Buckets returns the bucket-file count.
func (s *Store) Buckets() int { return len(s.buckets) }

// Stats returns cumulative counters since Open.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close syncs and closes every bucket file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	for bi := range s.dirty {
		if e := s.buckets[bi].f.Sync(); e != nil && err == nil {
			err = e
		}
	}
	s.closeAll()
	return err
}
