// Package flash is a log-structured, append-only on-disk value store:
// the flash tier of the DRAM+flash hierarchy in §5.4. Values are appended
// to fixed-size segment files with per-record CRC32 checksums; an
// in-memory index maps the key's hash -> (segment, offset), and the key
// itself lives only in its record (index.go). Reclamation is FIFO over
// whole segments — the write pattern production flash caches require for
// device lifetime — with reinsertion of still-live records that were read
// while on flash (the flash-friendly analogue of S3-FIFO's lazy
// promotion: one access bit, cleared on reinsertion).
//
// Crash recovery needs no separate manifest: Open scans the segment files
// in sequence order and rebuilds the index from every record whose
// checksum verifies, newest record per key hash winning. A torn append at
// the tail of the newest segment is truncated away; deletes persist as
// tombstone records.
//
// The store is safe for concurrent use. One store mutex guards the index
// and the log's bookkeeping, and the foreground does only memory work
// under it: an append encodes its record in place into a small fixed
// staging buffer, and one background goroutine, the sealer, writes staged
// chunks to the file, syncs sealed segments, creates the next one and
// unlinks reclaimed ones, all without the mutex (stage.go). Get probes the
// index under the mutex and reads the file outside it.
//
// Durability: a cache may forget, so a fresh record may sit staged and is
// lost by a crash; but a record that supersedes what the log already says
// about its key (a tombstone, or a Put over a live key) is written
// through, with everything staged before it, before the call returns, so
// a crash can never bring a deleted or superseded value back. Sync and
// Close drain the staging area. A failed background write is sticky: the
// records it covered leave the index, the next Put, Delete or Sync
// returns the error, and every call runs its I/O inline (so its outcome
// is its own) until one succeeds.
package flash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"s3fifo/internal/faultfs"
)

// ErrClosed is returned by mutating operations on a closed store.
var ErrClosed = errors.New("flash: store closed")

// ErrCorrupt is returned by Lookup when a record read back from its
// segment fails its magic or checksum.
var ErrCorrupt = errors.New("flash: record failed its checksum")

// unixNow is the store's clock; Store.now indirects it for TTL tests.
func unixNow() int64 { return time.Now().UnixNano() }

// Record layout, little-endian:
//
//	magic   uint32  recordMagic
//	flags   uint8   bit 0 = tombstone
//	klen    uint16
//	vlen    uint32
//	expires int64   unix nanoseconds, 0 = no TTL
//	crc     uint32  CRC32 (IEEE) of flags..expires plus key and value
//	key     klen bytes
//	value   vlen bytes
const (
	recordMagic   = 0x53464C31 // "SFL1"
	headerSize    = 4 + 1 + 2 + 4 + 8 + 4
	flagTombstone = 1

	// MaxKeyLen and MaxValueLen bound one record; larger entries are
	// rejected rather than admitted to the tier.
	MaxKeyLen   = 1 << 16
	MaxValueLen = 1 << 30
)

// Options configure Open.
type Options struct {
	// Dir holds the segment files; it is created if missing. Required.
	Dir string
	// MaxBytes caps the on-disk footprint. When an append pushes the
	// total over the cap, whole segments are reclaimed oldest-first.
	// Required.
	MaxBytes uint64
	// SegmentBytes is the size at which the active segment is sealed and
	// a new one opened. Default 4 MiB, clamped so at least 4 segments fit
	// in MaxBytes (reclamation granularity).
	SegmentBytes uint64
	// FS is the filesystem the store runs on. Default faultfs.OS(); tests
	// substitute a faultfs.Injector to drive the failure paths.
	FS faultfs.FS
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, fmt.Errorf("flash: Dir is required")
	}
	if o.MaxBytes == 0 {
		return o, fmt.Errorf("flash: MaxBytes is required")
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SegmentBytes > o.MaxBytes/4 {
		o.SegmentBytes = o.MaxBytes / 4
	}
	if o.SegmentBytes < 4<<10 {
		o.SegmentBytes = 4 << 10
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
	// BytesWritten counts every byte appended to segment files, including
	// reclamation rewrites and tombstones — the flash-endurance cost.
	BytesWritten uint64
	// GCBytes is the subset of BytesWritten rewritten by reclamation.
	GCBytes uint64
	// Reclaims counts segments reclaimed; ReclaimDropped the live records
	// dropped (flash evictions), ReclaimKept those reinserted.
	Reclaims       uint64
	ReclaimDropped uint64
	ReclaimKept    uint64
	// Recovery counters from the last Open: records indexed, bytes
	// truncated from a torn tail, records dropped for bad checksums.
	RecoveredRecords uint64
	TruncatedBytes   uint64
	CorruptDropped   uint64
	// ManifestRecovered is true when Open rebuilt the index from the
	// manifest written by the previous clean Close, skipping the full
	// checksummed log scan (see manifest.go).
	ManifestRecovered bool
}

// rec locates one live record.
type rec struct {
	seg     uint64
	off     uint64
	expires int64
	vlen    uint32
	klen    uint16
	freq    uint8 // read-while-on-flash counter, capped at 3
}

func (r rec) size() uint64 { return headerSize + uint64(r.klen) + uint64(r.vlen) }

type segment struct {
	seq  uint64
	path string
	// f is nil from the roll that makes the segment until the sealer has
	// created its file; every record of such a segment is still staged.
	f faultfs.File
	// size is the segment's logical length: bytes in the file plus bytes
	// staged for it.
	size uint64
	// readers counts Lookups reading f outside the store mutex; a retired
	// segment is closed and unlinked only once it is zero.
	readers atomic.Int32
	retired atomic.Bool
}

// Store is a log-structured key-value store. Create one with Open.
type Store struct {
	mu   sync.Mutex
	opts Options

	segs      []*segment // oldest..newest; last is the active (append) segment
	nextSeq   uint64
	index     index
	diskUsed  uint64
	liveBytes uint64
	stats     Stats
	closed    bool

	stager // the staging area and the sealer's inbox (stage.go)

	// reclaimBuf is the window, one staging buffer long, every reclamation
	// reads its victim through; reclaiming keeps a second caller out while
	// the first one waits for the sealer with the mutex released.
	reclaimBuf []byte
	reclaiming bool

	// now is indirected for TTL tests.
	now func() int64
}

// Open opens (or creates) a store in opts.Dir, rebuilding the index from
// the segment files on disk.
func Open(opts Options) (*Store, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flash: %w", err)
	}
	s := &Store{
		opts:  opts,
		index: newIndex(),
		now:   unixNow,
	}
	s.stage, s.spare = make([]byte, 0, stageBytes), make([]byte, 0, stageBytes)
	s.wake.L, s.idle.L = &s.mu, &s.mu
	// Fast path: a manifest from a clean Close rebuilds the index without
	// scanning the log; any mismatch falls back to the full scan.
	if !s.loadManifest() {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	if len(s.segs) == 0 {
		s.rollLocked()
		if _, err := s.ioStep(false); err != nil {
			s.closeAll()
			return nil, err
		}
	}
	s.sealerDone = make(chan struct{})
	go s.sealer() // Close stops it
	return s, nil
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%010d.seg", seq))
}

// recover scans segment files in sequence order and rebuilds the index.
// The newest record for a key wins; tombstones erase; a torn record at
// the tail of the newest segment is truncated away; a corrupt record
// anywhere else abandons the rest of that segment (records behind it
// cannot be located reliably).
func (s *Store) recover() error {
	names, err := s.opts.FS.Glob(filepath.Join(s.opts.Dir, "*.seg"))
	if err != nil {
		return fmt.Errorf("flash: %w", err)
	}
	type found struct {
		seq  uint64
		path string
	}
	var files []found
	for _, p := range names {
		base := strings.TrimSuffix(filepath.Base(p), ".seg")
		seq, err := strconv.ParseUint(base, 10, 64)
		if err != nil {
			continue // not ours
		}
		files = append(files, found{seq, p})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].seq < files[j].seq })

	for i, fl := range files {
		last := i == len(files)-1
		data, err := s.opts.FS.ReadFile(fl.path)
		if err != nil {
			return fmt.Errorf("flash: recover %s: %w", fl.path, err)
		}
		valid := s.scanSegment(fl.seq, data, last)
		if last && valid < uint64(len(data)) {
			// Torn tail: truncate so future appends start at a clean edge.
			s.stats.TruncatedBytes += uint64(len(data)) - valid
			if err := s.opts.FS.Truncate(fl.path, int64(valid)); err != nil {
				return fmt.Errorf("flash: truncate %s: %w", fl.path, err)
			}
			data = data[:valid]
		}
		mode := os.O_RDONLY
		if last {
			mode = os.O_RDWR
		}
		f, err := s.opts.FS.OpenFile(fl.path, mode, 0o644)
		if err != nil {
			s.closeAll()
			return fmt.Errorf("flash: %w", err)
		}
		seg := &segment{seq: fl.seq, path: fl.path, f: f, size: uint64(len(data))}
		s.segs = append(s.segs, seg)
		s.diskUsed += seg.size
		if fl.seq >= s.nextSeq {
			s.nextSeq = fl.seq + 1
		}
	}
	return nil
}

// scanSegment indexes every verifiable record in data and returns the
// byte offset of the first invalid one (== len(data) when all verify).
func (s *Store) scanSegment(seq uint64, data []byte, last bool) uint64 {
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
		total := headerSize + uint64(klen) + uint64(vlen)
		if vlen > MaxValueLen || off+total > uint64(len(data)) ||
			recordCRC(hdr[:total]) != binary.LittleEndian.Uint32(hdr[19:23]) {
			break
		}
		h := keyHash(hdr[headerSize:][:klen])
		if flags&flagTombstone != 0 {
			s.dropIndex(h)
		} else if expires != 0 && expires <= s.now() {
			s.dropIndex(h) // expired while down
		} else {
			s.setIndex(h, rec{seg: seq, off: off, klen: klen, vlen: vlen, expires: expires})
			s.stats.RecoveredRecords++
		}
		off += total
	}
	// An unreadable record: a torn tail on the active segment is normal
	// crash damage (counted as truncation by the caller); anywhere else it
	// is corruption.
	if off < uint64(len(data)) && !last {
		s.stats.CorruptDropped++
	}
	return off
}

// setIndex and dropIndex map and unmap a key hash. Under a collision the
// hash's other key is what they forget: a cache may forget, and Lookup,
// which compares the record's key, never serves it to the wrong caller.
func (s *Store) setIndex(h uint64, r rec) {
	if old, ok := s.index.put(h, r); ok {
		s.liveBytes -= old.size()
	}
	s.liveBytes += r.size()
}

func (s *Store) dropIndex(h uint64) {
	if old, ok := s.index.del(h); ok {
		s.liveBytes -= old.size()
	}
}

func (s *Store) closeAll() {
	for _, segs := range [][]*segment{s.retired, s.segs} {
		for _, seg := range segs {
			if seg.f != nil {
				seg.f.Close()
			}
		}
	}
}

func (s *Store) active() *segment { return s.segs[len(s.segs)-1] }

// encodeRecord writes one record into dst, which is exactly its size.
func encodeRecord(dst []byte, key string, value []byte, expires int64, flags uint8) {
	binary.LittleEndian.PutUint32(dst[0:4], recordMagic)
	dst[4] = flags
	binary.LittleEndian.PutUint16(dst[5:7], uint16(len(key)))
	binary.LittleEndian.PutUint32(dst[7:11], uint32(len(value)))
	binary.LittleEndian.PutUint64(dst[11:19], uint64(expires))
	copy(dst[headerSize:], key)
	copy(dst[headerSize+len(key):], value)
	binary.LittleEndian.PutUint32(dst[19:23], recordCRC(dst))
}

// recordCRC is the checksum of one whole record: everything after the
// magic except the checksum field itself.
func recordCRC(buf []byte) uint32 {
	crc := crc32.ChecksumIEEE(buf[4:19])
	return crc32.Update(crc, crc32.IEEETable, buf[headerSize:])
}

// makeRoomLocked readies the store for an append of total bytes: a live
// active segment with room in it, and room in the staging buffer. In the
// steady state it touches nothing. It waits for the sealer where it has
// to, so the mutex may be released and retaken inside.
func (s *Store) makeRoomLocked(total int) error {
	for {
		switch {
		case s.closed:
			return ErrClosed
		case s.ioErr != nil:
			// The sealer is parked: run what it left, and the roll if one is
			// due, inline. The caller writes its own record through.
			if err := s.flushLocked(); err != nil {
				return err
			}
			if s.ioErr == nil {
				continue // that flush had bytes to write: the disk is back
			}
			if s.active().size < s.opts.SegmentBytes {
				return nil
			}
			s.rollLocked()
		case s.active().size >= s.opts.SegmentBytes:
			// Lazy roll, by the append after the one that filled the segment,
			// and only once the sealer is through with the previous one.
			if s.busy || s.pendingLocked() {
				s.waitIdleLocked()
				continue
			}
			s.rollLocked()
			s.wake.Signal()
		case total > cap(s.stage):
			return s.flushLocked() // written directly; nothing may be staged in front
		case len(s.stage)+total > cap(s.stage):
			// Buffer full: it goes to the sealer as soon as the other one is back.
			if s.flight.seg != nil {
				s.waitWrittenLocked()
				continue
			}
			s.handoffLocked()
			s.wake.Signal()
		default:
			return nil
		}
	}
}

// appendRecord stages one record at the end of the log and returns its
// location. gc marks reclamation rewrites for the stats split. Bytes are
// counted as written here, when they join the log, not when they reach
// the file.
func (s *Store) appendRecord(key string, value []byte, expires int64, flags uint8, gc bool) (rec, error) {
	if len(key) == 0 || len(key) >= MaxKeyLen {
		return rec{}, fmt.Errorf("flash: key length %d out of range", len(key))
	}
	if len(value) > MaxValueLen {
		return rec{}, fmt.Errorf("flash: value too large (%d bytes)", len(value))
	}
	total := headerSize + len(key) + len(value)
	if err := s.makeRoomLocked(total); err != nil {
		return rec{}, err
	}
	seg := s.active()
	if total <= cap(s.stage) {
		n := len(s.stage)
		s.stage = s.stage[:n+total]
		encodeRecord(s.stage[n:], key, value, expires, flags)
	} else {
		// Too big to stage: makeRoomLocked has flushed, so the record goes
		// straight to the file behind everything before it.
		buf := make([]byte, total)
		encodeRecord(buf, key, value, expires, flags)
		if _, err := seg.f.WriteAt(buf, int64(seg.size)); err != nil {
			s.failLocked(fmt.Errorf("flash: append: %w", err), false)
			return rec{}, s.ioErr
		}
	}
	r := rec{
		seg: seg.seq, off: seg.size,
		klen: uint16(len(key)), vlen: uint32(len(value)), expires: expires,
	}
	seg.size += uint64(total)
	s.diskUsed += uint64(total)
	s.stats.BytesWritten += uint64(total)
	if gc {
		s.stats.GCBytes += uint64(total)
	}
	return r, nil
}

// Put stores value under key with an optional absolute expiry (unix
// nanoseconds; 0 = none), evicting old segments as needed. A Put of a key
// the store does not hold is staged: it costs a copy, and a crash before
// the sealer has written it forgets it. A Put over a live key supersedes
// a record that may already be in the file, so it is written through.
func (s *Store) Put(key string, value []byte, expires int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, err := s.appendRecord(key, value, expires, 0, false)
	if err != nil {
		return err
	}
	s.stats.Puts++
	h := keyHash(key)
	supersedes := s.index.get(h) != nil
	s.setIndex(h, r)
	// Written through: a record that supersedes one the file may hold; any
	// record while a reclaimed segment awaits its unlink, because that file
	// may still hold an older value of this key, which a crash would index
	// again unless the newer one is in the log behind it; and every record
	// in the sticky-error state.
	if supersedes || len(s.retired) > 0 || s.ioErr != nil {
		if err := s.flushLocked(); err != nil {
			return err
		}
	}
	return s.reclaimLocked()
}

// reclaimLocked enforces MaxBytes by reclaiming whole segments
// oldest-first. Live records that were read while on flash are reinserted
// at the head of the log (access bit cleared, so a record survives at
// most one generation without a new read); cold or superseded records are
// dropped. The victim is read inline, a staging buffer's worth at a time
// into memory every reclamation reuses, so what is kept and dropped
// depends only on the order of calls; reinsertions are staged like any
// other append, and the victim's close and unlink are the sealer's. The
// victim stays listed until it has been walked: an error on the way
// leaves what it has not settled to the next reclamation.
func (s *Store) reclaimLocked() error {
	if s.reclaiming {
		return nil // a reinsertion's wait let this caller in; the first one finishes the job
	}
	s.reclaiming = true
	defer func() {
		s.reclaiming = false
		s.idle.Broadcast() // Reset waits for this
	}()
	for s.diskUsed > s.opts.MaxBytes && len(s.segs) > 1 {
		victim := s.segs[0]
		if victim == s.flight.seg {
			// Only when a record or two fill the whole budget: the victim's
			// tail must be in its file before the file is read.
			if err := s.flushLocked(); err != nil {
				return err
			}
			continue
		}
		if err := s.walkVictimLocked(victim); err != nil {
			return err
		}
		if s.closed {
			return ErrClosed // under a reinsertion's wait
		}
		n := copy(s.segs, s.segs[1:])
		s.segs[n] = nil
		s.segs = s.segs[:n]
		s.diskUsed -= victim.size
		victim.retired.Store(true)
		s.retired = append(s.retired, victim)
		s.wake.Signal()
		s.stats.Reclaims++
	}
	return nil
}

// walkVictimLocked reads victim in windows of one staging buffer and
// settles its records in order. A record that straddles a window's end
// starts the next window; one larger than a window (it was written
// directly) is read alone. Damage ends the walk: nothing behind it can be
// located.
func (s *Store) walkVictimLocked(victim *segment) error {
	if s.reclaimBuf == nil {
		s.reclaimBuf = make([]byte, stageBytes)
	}
	now := s.now()
	for pos := uint64(0); pos+headerSize <= victim.size; {
		win := s.reclaimBuf[:min(uint64(len(s.reclaimBuf)), victim.size-pos)]
		if _, err := victim.f.ReadAt(win, int64(pos)); err != nil {
			return fmt.Errorf("flash: reclaim read %s: %w", victim.path, err)
		}
		off := uint64(0)
		for off+headerSize <= uint64(len(win)) {
			hdr := win[off:]
			total := headerSize + uint64(binary.LittleEndian.Uint16(hdr[5:7])) + uint64(binary.LittleEndian.Uint32(hdr[7:11]))
			if binary.LittleEndian.Uint32(hdr[0:4]) != recordMagic || pos+off+total > victim.size {
				return nil // scan damage; everything behind is unreachable anyway
			}
			if off > 0 && off+total > uint64(len(win)) {
				break // it starts the next window
			}
			data := hdr[:min(total, uint64(len(hdr)))]
			if uint64(len(data)) < total {
				data = make([]byte, total) // written directly: read alone
				if _, err := victim.f.ReadAt(data, int64(pos)); err != nil {
					return fmt.Errorf("flash: reclaim read %s: %w", victim.path, err)
				}
			}
			if err := s.settleLocked(victim.seq, pos+off, data, now); err != nil {
				return err
			}
			off += total
		}
		pos += off
	}
	return nil
}

// settleLocked drops or reinserts one record of a reclaimed segment, the
// one at off; it does nothing unless that record is what the index holds.
func (s *Store) settleLocked(seq, off uint64, data []byte, now int64) error {
	klen := binary.LittleEndian.Uint16(data[5:7])
	kb := data[headerSize:][:klen]
	h := keyHash(kb)
	p := s.index.get(h)
	if p == nil || p.seg != seq || p.off != off {
		return nil
	}
	switch r := *p; {
	case r.expires != 0 && r.expires <= now:
		s.dropIndex(h)
	case r.freq > 0:
		// Making room may wait for the sealer with the mutex released, and
		// a Delete or Put of this key may get in: a copy appended after that
		// would be the newest record of the key in the log.
		if err := s.makeRoomLocked(len(data)); err != nil {
			return err
		}
		if cur := s.index.get(h); cur == nil || cur.seg != seq || cur.off != off {
			return nil
		}
		nr, err := s.appendRecord(string(kb), data[headerSize+int(klen):], r.expires, 0, true)
		if err != nil {
			return err
		}
		s.setIndex(h, nr) // freq resets to zero
		s.stats.ReclaimKept++
	default:
		s.dropIndex(h)
		s.stats.ReclaimDropped++
	}
	return nil
}

// Get returns the value and expiry stored for key, bumping its
// read-while-on-flash bit. Expired or unreadable records count as misses
// and leave the index.
func (s *Store) Get(key string) (value []byte, expires int64, ok bool) {
	value, expires, ok, _ = s.Lookup(key)
	return value, expires, ok
}

// Lookup is Get that also says why an indexed record could not be served:
// err is the failed read, or ErrCorrupt, and nil on a hit or a clean miss.
// The index is probed under the store mutex; a record still staged is
// copied out of memory there, and any other is read back and checked
// outside it, its segment held against reclamation meanwhile. The index
// holds only the key's hash, so the key in the record is compared with
// key: a record of another key with the same hash is a miss.
func (s *Store) Lookup(key string) (value []byte, expires int64, ok bool, err error) {
	s.mu.Lock()
	s.stats.Gets++
	h := keyHash(key)
	var r rec
	p := s.index.get(h)
	found := p != nil && int(p.klen) == len(key)
	if found {
		r = *p
		if r.expires != 0 && r.expires <= s.now() {
			s.dropIndex(h)
			found = false
		}
	}
	var seg *segment
	var staged []byte
	if found {
		if staged = s.stagedLocked(r); staged != nil {
			found = string(staged[headerSize:][:r.klen]) == key
		} else if seg = s.segFor(r.seg); seg == nil {
			s.dropIndex(h)
			found = false
		}
	}
	if !found {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, 0, false, nil
	}
	s.stats.Hits++
	if r.freq < 3 {
		p.freq++
	}
	if staged != nil {
		value = append([]byte(nil), staged[headerSize+int(r.klen):]...)
		s.mu.Unlock()
		return value, r.expires, true, nil
	}
	seg.readers.Add(1)
	s.mu.Unlock()

	buf := make([]byte, r.size())
	_, err = seg.f.ReadAt(buf, int64(r.off))
	s.release(seg)
	if err == nil && (binary.LittleEndian.Uint32(buf[0:4]) != recordMagic ||
		binary.LittleEndian.Uint32(buf[19:23]) != recordCRC(buf)) {
		err = ErrCorrupt
	}
	if err == nil && string(buf[headerSize:][:r.klen]) == key {
		return buf[headerSize+uint64(r.klen):], r.expires, true, nil
	}
	s.mu.Lock()
	s.stats.Hits-- // counted before the read; it was a miss after all
	s.stats.Misses++
	if err == nil || s.closed {
		// Another key's record, or a Lookup that found its file shut: Close
		// does not wait for readers of live segments. Neither is the disk's
		// fault.
		s.mu.Unlock()
		return nil, 0, false, nil
	}
	s.stats.CorruptDropped++
	if cur := s.index.get(h); cur != nil && cur.seg == r.seg && cur.off == r.off {
		s.dropIndex(h)
	}
	s.mu.Unlock()
	return nil, 0, false, fmt.Errorf("flash: read %s: %w", seg.path, err)
}

func (s *Store) segFor(seq uint64) *segment {
	// Segments are few (MaxBytes/SegmentBytes); a linear scan from the
	// newest end wins for fresh records and stays trivial.
	for i := len(s.segs) - 1; i >= 0; i-- {
		if s.segs[i].seq == seq {
			return s.segs[i]
		}
	}
	return nil
}

// Contains reports whether key has a live, unexpired record, without
// touching its access bit or the Get counters. It reads no record, so
// one of another key with the same hash and length counts: the tiered
// cache then skips a demotion, and so forgets the key.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := keyHash(key)
	r := s.index.get(h)
	if r == nil || int(r.klen) != len(key) {
		return false
	}
	if r.expires != 0 && r.expires <= s.now() {
		s.dropIndex(h)
		return false
	}
	return true
}

// Delete removes key. A tombstone record is appended when the key was
// present, and it — with everything staged before it — is written to the
// file before Delete returns, so the delete survives a crash of the
// process. The boolean reports whether the key was present (and disk I/O
// was therefore attempted): callers tracking disk health must ignore the
// nil error of a no-op delete. Even when the tombstone append fails the
// key is gone from the in-memory index — only crash durability is at
// risk, which the caller's error handling must cover.
func (s *Store) Delete(key string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := keyHash(key)
	if s.index.get(h) == nil {
		// Nothing to tombstone — but a segment reclamation has dropped this
		// key from may still be awaiting its unlink, and a crash before that
		// would index the record again with no tombstone behind it.
		for len(s.retired) > 0 && s.ioErr == nil && !s.closed {
			s.awaitSealerLocked()
		}
		return false, nil
	}
	s.dropIndex(h)
	s.stats.Deletes++
	if _, err := s.appendRecord(key, nil, 0, flagTombstone, false); err != nil {
		return true, err
	}
	if err := s.flushLocked(); err != nil {
		return true, err
	}
	return true, s.reclaimLocked()
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.n
}

// DiskUsed returns the total size of the segment files.
func (s *Store) DiskUsed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskUsed
}

// Segments returns the number of segment files.
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs)
}

// Capacity returns the configured MaxBytes.
func (s *Store) Capacity() uint64 { return s.opts.MaxBytes }

// Stats returns cumulative counters since Open.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Sync is the barrier: it drains the staging area and the sealer — every
// record appended so far is in its file, every reclaimed segment is
// unlinked — and then syncs the active segment to stable storage, inline.
// It returns the sticky error of a background write that failed since the
// last call, so "Sync returned nil" means nothing was lost behind the
// caller's back. After it DiskUsed equals the bytes in the segment files.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.drainLocked(); err != nil {
		return err
	}
	if err := s.active().f.Sync(); err != nil {
		return fmt.Errorf("flash: sync %s: %w", s.active().path, err)
	}
	return nil
}

// Reset drops every record and segment file, returning the store to
// empty with a fresh active segment. The tiered cache uses it as the
// degraded-recovery fallback when too many keys were superseded during a
// flash outage to tombstone individually: flash contents are a cache, so
// wiping trades hit ratio for guaranteed consistency.
func (s *Store) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && (s.busy || s.reclaiming) {
		s.idle.Wait()
	}
	if s.closed {
		return ErrClosed
	}
	// Whatever is staged or owed to the old segments dies with them; the
	// files go the way reclaimed ones do, oldest first, each once its last
	// reader has let go.
	s.stage, s.unsynced = s.stage[:0], nil
	if s.flight.seg != nil {
		s.flight, s.spare = chunk{}, s.flight.data[:0]
	}
	for _, seg := range s.segs {
		if seg.f != nil { // else the sealer never got to create the file
			seg.retired.Store(true)
			s.retired = append(s.retired, seg)
		}
	}
	s.segs = nil
	s.index = newIndex()
	s.diskUsed = 0
	s.liveBytes = 0
	s.ioErr, s.untold = nil, false
	s.rollLocked()
	return s.drainLocked()
}

// Close drains the staging area, stops the sealer, syncs and closes every
// segment file. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.drainLocked()
	if s.closed {
		return nil // a concurrent Close won while this one waited
	}
	s.closed = true
	s.wake.Broadcast()
	s.idle.Broadcast()
	s.mu.Unlock()
	<-s.sealerDone
	s.mu.Lock()
	if err == nil {
		err = s.active().f.Sync()
	}
	// With the log sealed, persist the index so the next Open can skip
	// the scan. Best-effort: a failed write costs only the fast path.
	if err == nil {
		s.writeManifestLocked()
	}
	s.closeAll()
	s.segs = nil
	return err
}
