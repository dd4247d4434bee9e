// The index manifest: warm-restart support for the flash store. A clean
// Close serializes the in-memory index (plus the segment list and each
// record's read-while-on-flash counter) into one manifest file; the next
// Open loads it and skips the full checksummed log scan, so recovery
// time is proportional to the index, not the store. Version 2 records
// each entry's key hash and key length, not the key; a version 1 file
// fails the magic check and Open scans.
//
// Safety protocol: the manifest is only trusted when every segment file
// it names still exists at exactly the recorded size (a crash after the
// manifest was written appends nothing — Close has already sealed the
// log), and it is deleted immediately after a successful load, so a
// later crash falls back to the scan instead of replaying a stale
// index. A torn manifest write fails its own CRC and is ignored, and one
// that names a record outside its segments is not trusted at all. The
// scan therefore remains the source of truth; the manifest is purely an
// optimization over it.
package flash

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
)

const manifestName = "index.man"

var manifestMagic = [8]byte{'S', 'F', 'L', 'M', 'A', 'N', '0', '2'}

// manifestEntry is the encoded size of one index entry: hash, klen, seg,
// off, vlen, expires, freq.
const manifestEntry = 8 + 2 + 8 + 8 + 4 + 8 + 1

func (s *Store) manifestPath() string {
	return filepath.Join(s.opts.Dir, manifestName)
}

// writeManifestLocked serializes the segment list and index. Called with
// the store mutex held, after the active segment has been synced. A
// failed write only costs the next Open its fast path, so the caller
// treats errors as advisory.
func (s *Store) writeManifestLocked() error {
	var buf []byte
	buf = append(buf, manifestMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.segs)))
	for _, seg := range s.segs {
		buf = binary.LittleEndian.AppendUint64(buf, seg.seq)
		buf = binary.LittleEndian.AppendUint64(buf, seg.size)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.index.n))
	for _, sl := range s.index.slots {
		if sl.klen == 0 {
			continue
		}
		r := sl.rec
		buf = binary.LittleEndian.AppendUint64(buf, sl.hash)
		buf = binary.LittleEndian.AppendUint16(buf, r.klen)
		buf = binary.LittleEndian.AppendUint64(buf, r.seg)
		buf = binary.LittleEndian.AppendUint64(buf, r.off)
		buf = binary.LittleEndian.AppendUint32(buf, r.vlen)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.expires))
		buf = append(buf, r.freq)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))

	path := s.manifestPath()
	f, err := s.opts.FS.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		f.Close()
		s.opts.FS.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.opts.FS.Remove(path)
		return err
	}
	return f.Close()
}

// loadManifest attempts the fast recovery path. It returns true when the
// manifest was valid, matched the on-disk segment files, and the index
// was rebuilt from it; false sends the caller to the full log scan.
// Either way the manifest file is removed: once the store is open for
// appends the serialized index is stale.
func (s *Store) loadManifest() bool {
	path := s.manifestPath()
	data, err := s.opts.FS.ReadFile(path)
	if err != nil {
		return false
	}
	// The manifest is consumed on sight — even if it validates, the store
	// mutates from here on and a crash must trigger the scan.
	defer s.opts.FS.Remove(path)

	if len(data) < len(manifestMagic)+4+8+4 || [8]byte(data[:8]) != manifestMagic {
		return false
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return false
	}

	off := len(manifestMagic)
	need := func(n int) bool { return off+n <= len(body) }
	if !need(4) {
		return false
	}
	segCount := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if !need(16 * segCount) {
		return false
	}
	// Validate the on-disk reality against the manifest before touching
	// any store state: every named segment, in order, at its exact
	// recorded size, and no segment file beyond the named set.
	names, err := s.opts.FS.Glob(filepath.Join(s.opts.Dir, "*.seg"))
	if err != nil || len(names) != segCount {
		return false
	}
	segs := make([]*segment, segCount)
	for i := range segs {
		seq, size := binary.LittleEndian.Uint64(body[off:]), binary.LittleEndian.Uint64(body[off+8:])
		off += 16
		if i > 0 && seq <= segs[i-1].seq {
			return false // out of order, or named twice
		}
		segs[i] = &segment{seq: seq, path: segPath(s.opts.Dir, seq), size: size}
		if n, err := s.opts.FS.Stat(segs[i].path); err != nil || uint64(n) != size {
			return false
		}
	}
	if !need(8) {
		return false
	}
	entryCount := binary.LittleEndian.Uint64(body[off:])
	off += 8
	if rest := uint64(len(body) - off); rest%manifestEntry != 0 || entryCount != rest/manifestEntry {
		return false
	}

	// Commit: open the segment files in sequence order, newest writable,
	// and index the entries. Anything amiss unwinds, so the scan fallback
	// starts from pristine state.
	unwind := func() bool {
		s.closeAll()
		s.segs, s.index = nil, newIndex()
		s.diskUsed, s.liveBytes, s.nextSeq = 0, 0, 0
		return false
	}
	for i, seg := range segs {
		mode := os.O_RDONLY
		if i == len(segs)-1 {
			mode = os.O_RDWR
		}
		if seg.f, err = s.opts.FS.OpenFile(seg.path, mode, 0o644); err != nil {
			return unwind()
		}
		s.segs = append(s.segs, seg)
		s.diskUsed += seg.size
		s.nextSeq = seg.seq + 1
	}
	now := s.now()
	for ; off < len(body); off += manifestEntry {
		e := body[off:]
		h, r := binary.LittleEndian.Uint64(e), rec{
			klen:    binary.LittleEndian.Uint16(e[8:]),
			seg:     binary.LittleEndian.Uint64(e[10:]),
			off:     binary.LittleEndian.Uint64(e[18:]),
			vlen:    binary.LittleEndian.Uint32(e[26:]),
			expires: int64(binary.LittleEndian.Uint64(e[30:])),
			freq:    e[38],
		}
		// An entry must lie inside a segment the manifest names.
		if seg := s.segFor(r.seg); r.klen == 0 || seg == nil || r.off > seg.size || r.size() > seg.size-r.off {
			return unwind()
		}
		if r.expires == 0 || r.expires > now { // else expired while down, as the scan treats it
			s.setIndex(h, r)
		}
	}
	s.stats.ManifestRecovered = true
	s.stats.RecoveredRecords = uint64(s.index.n)
	return true
}
