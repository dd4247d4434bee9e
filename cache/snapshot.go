package cache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Snapshot format v2: a full metadata snapshot. After the magic comes
// the save time (unix nanoseconds, int64), then tagged records — every
// resident entry with its value, TTL, S3-FIFO queue membership, and
// frequency, plus every ghost-queue fingerprint — then an end tag and a
// trailing CRC32 (IEEE) over everything before it, magic included.
// Restoring replays the records through Engine.RestoreMeta, so a
// restarted cache resumes with the eviction policy's learned state
// (which entries proved reuse, what the ghost remembers), not just the
// data. v1 snapshots (a value dump nothing writes any more) are rejected
// by version.
//
// Integrity: Load verifies the CRC and fully validates the record
// structure before constructing a cache, so a corrupt or truncated
// snapshot yields an error and no cache — never a partially restored
// one.
var (
	snapshotMagicV1 = [8]byte{'S', '3', 'S', 'N', 'A', 'P', '0', '1'}
	snapshotMagicV2 = [8]byte{'S', '3', 'S', 'N', 'A', 'P', '0', '2'}
)

// ErrClosed is returned by operations on a closed Cache (e.g. Save
// after Close).
var ErrClosed = errors.New("cache: closed")

// Record tags.
const (
	snapEnd   = 0
	snapEntry = 1
	snapGhost = 2
)

// maxSnapshotRecord guards Load against corrupt length fields.
const maxSnapshotRecord = 64 << 20

// Save writes a full metadata snapshot of the cache to w. Entries whose
// TTL has already passed are skipped. Concurrent mutations during Save
// are safe; the snapshot is per-shard consistent, not globally atomic.
// Save excludes Close for its duration (shared lock): a Save that
// started before Close completes normally, one after returns ErrClosed.
func (c *Cache) Save(w io.Writer) error {
	c.closeMu.RLock()
	defer c.closeMu.RUnlock()
	if c.closed {
		return ErrClosed
	}

	savedAt := now().UnixNano()
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(w)
	mw := io.MultiWriter(bw, crc)

	var scratch [8]byte
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := mw.Write(scratch[:4])
		return err
	}
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := mw.Write(scratch[:])
		return err
	}
	writeByte := func(b byte) error {
		scratch[0] = b
		_, err := mw.Write(scratch[:1])
		return err
	}

	if _, err := mw.Write(snapshotMagicV2[:]); err != nil {
		return err
	}
	if err := writeU64(uint64(savedAt)); err != nil {
		return err
	}

	var werr error
	c.engine.SnapshotMeta(func(r MetaRecord) bool {
		if r.Ghost {
			if werr = writeByte(snapGhost); werr != nil {
				return false
			}
			if werr = writeU32(r.Shard); werr != nil {
				return false
			}
			werr = writeU32(r.Fingerprint)
			return werr == nil
		}
		if len(r.Key) > maxSnapshotRecord || len(r.Value) > maxSnapshotRecord {
			return true // unserializable outlier: skip, don't poison the file
		}
		freq := r.Freq
		if freq < 0 {
			freq = 0
		}
		if freq > 255 {
			freq = 255
		}
		if werr = writeByte(snapEntry); werr != nil {
			return false
		}
		if werr = writeU32(uint32(len(r.Key))); werr != nil {
			return false
		}
		if _, werr = io.WriteString(mw, r.Key); werr != nil {
			return false
		}
		if werr = writeU32(uint32(len(r.Value))); werr != nil {
			return false
		}
		if _, werr = mw.Write(r.Value); werr != nil {
			return false
		}
		if werr = writeU64(uint64(r.ExpiresAt)); werr != nil {
			return false
		}
		if werr = writeByte(byte(freq)); werr != nil {
			return false
		}
		werr = writeByte(byte(r.Queue))
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	if err := writeByte(snapEnd); err != nil {
		return err
	}
	// The CRC itself goes straight to the output, not through mw.
	binary.LittleEndian.PutUint32(scratch[:4], crc.Sum32())
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	c.snapshotAt.Store(savedAt)
	return nil
}

// snapIter walks the validated record region of a v2 snapshot. parse
// errors are impossible after validateSnapshotV2, so next simply stops
// on any inconsistency.
type snapIter struct {
	body []byte
	off  int
	now  int64
}

func (it *snapIter) next() (MetaRecord, bool) {
	for {
		rec, ok, err := readSnapshotRecord(it.body, &it.off, true)
		if err != nil || !ok {
			return MetaRecord{}, false
		}
		if !rec.Ghost && rec.ExpiresAt != 0 && it.now > rec.ExpiresAt {
			continue // expired while the snapshot sat on disk
		}
		return rec, true
	}
}

// readSnapshotRecord decodes one record at *off, advancing it. ok=false
// with nil error is the end tag. With copy=false no key/value data is
// materialized (the validation pass).
func readSnapshotRecord(body []byte, off *int, copyData bool) (MetaRecord, bool, error) {
	need := func(n int) bool { return *off+n <= len(body) }
	if !need(1) {
		return MetaRecord{}, false, errors.New("cache: snapshot truncated")
	}
	tag := body[*off]
	*off++
	switch tag {
	case snapEnd:
		if *off != len(body) {
			return MetaRecord{}, false, errors.New("cache: snapshot has trailing data")
		}
		return MetaRecord{}, false, nil
	case snapGhost:
		if !need(8) {
			return MetaRecord{}, false, errors.New("cache: snapshot truncated")
		}
		rec := MetaRecord{
			Ghost:       true,
			Shard:       binary.LittleEndian.Uint32(body[*off:]),
			Fingerprint: binary.LittleEndian.Uint32(body[*off+4:]),
		}
		*off += 8
		return rec, true, nil
	case snapEntry:
		if !need(4) {
			return MetaRecord{}, false, errors.New("cache: snapshot truncated")
		}
		klen := int(binary.LittleEndian.Uint32(body[*off:]))
		*off += 4
		if klen == 0 || klen > maxSnapshotRecord || !need(klen) {
			return MetaRecord{}, false, errors.New("cache: snapshot key length corrupt")
		}
		kOff := *off
		*off += klen
		if !need(4) {
			return MetaRecord{}, false, errors.New("cache: snapshot truncated")
		}
		vlen := int(binary.LittleEndian.Uint32(body[*off:]))
		*off += 4
		if vlen > maxSnapshotRecord || !need(vlen) {
			return MetaRecord{}, false, errors.New("cache: snapshot value length corrupt")
		}
		vOff := *off
		*off += vlen
		if !need(8 + 1 + 1) {
			return MetaRecord{}, false, errors.New("cache: snapshot truncated")
		}
		expires := int64(binary.LittleEndian.Uint64(body[*off:]))
		freq := body[*off+8]
		queue := body[*off+9]
		*off += 10
		if queue > uint8(MetaMain) {
			return MetaRecord{}, false, errors.New("cache: snapshot queue tag corrupt")
		}
		rec := MetaRecord{
			ExpiresAt: expires,
			Freq:      int(freq),
			Queue:     MetaQueue(queue),
		}
		if copyData {
			rec.Key = string(body[kOff : kOff+klen])
			rec.Value = append([]byte(nil), body[vOff:vOff+vlen]...)
		}
		return rec, true, nil
	default:
		return MetaRecord{}, false, fmt.Errorf("cache: snapshot record tag %d corrupt", tag)
	}
}

// validateSnapshotV2 dry-parses every record, proving the structure is
// sound before any cache state is built.
func validateSnapshotV2(body []byte) error {
	off := 0
	for {
		_, ok, err := readSnapshotRecord(body, &off, false)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// Load restores a snapshot written by Save into a freshly configured
// cache: full eviction metadata (queue membership, frequencies, ghost
// fingerprints) via Engine.RestoreMeta. Entries that no longer fit
// (smaller MaxBytes than at save time) are admitted-then-evicted as usual;
// already-expired TTL entries are dropped. On any error — bad magic,
// CRC mismatch, truncation, corrupt structure — Load returns a nil
// cache and no partial state.
func Load(r io.Reader, cfg Config) (*Cache, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("cache: snapshot header: %w", err)
	}
	switch magic {
	case snapshotMagicV2:
		return loadV2(br, cfg)
	case snapshotMagicV1:
		return nil, errors.New("cache: unsupported snapshot version 1")
	default:
		return nil, errors.New("cache: not a snapshot (bad magic)")
	}
}

func loadV2(br *bufio.Reader, cfg Config) (*Cache, error) {
	// The v2 loader reads the whole snapshot before building anything:
	// the trailing CRC can only be checked against complete bytes, and
	// "no partial state on corrupt input" falls out for free. Snapshots
	// are bounded by DRAM capacity, so this at most doubles transient
	// memory during restore.
	data, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("cache: snapshot read: %w", err)
	}
	if len(data) < 8+1+4 { // savedAt + end tag + CRC
		return nil, errors.New("cache: snapshot truncated")
	}
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	crc := crc32.NewIEEE()
	crc.Write(snapshotMagicV2[:])
	crc.Write(data[:len(data)-4])
	if crc.Sum32() != sum {
		return nil, errors.New("cache: snapshot checksum mismatch")
	}
	savedAt := int64(binary.LittleEndian.Uint64(data[:8]))
	body := data[8 : len(data)-4]
	if err := validateSnapshotV2(body); err != nil {
		return nil, err
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	it := &snapIter{body: body, now: now().UnixNano()}
	c.engine.RestoreMeta(it.next)
	c.drainEvictions()
	c.snapshotAt.Store(savedAt)
	return c, nil
}

// SaveFile writes a snapshot to path atomically: a temp file in the
// same directory, synced, then renamed over path. Callers (s3cached's
// -snapshot-path shutdown hook) can therefore never leave a torn
// snapshot where the next boot will trust it.
func (c *Cache) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := c.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile restores a snapshot from path into a freshly configured
// cache; see Load. A missing file is an error the caller can detect
// with os.IsNotExist / errors.Is(err, fs.ErrNotExist) to fall back to a
// cold start.
func LoadFile(path string, cfg Config) (*Cache, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, cfg)
}
