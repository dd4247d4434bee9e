package flash

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"s3fifo/internal/faultfs"
)

// fillStore writes enough entries to roll several segments and returns
// the expected live set.
func fillStore(t *testing.T, s *Store, n int) map[string][]byte {
	t.Helper()
	want := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%03d", i)
		val := bytes.Repeat([]byte{byte('a' + i%26)}, 64)
		if err := s.Put(key, val, 0); err != nil {
			t.Fatal(err)
		}
		want[key] = val
	}
	return want
}

func checkRecovered(t *testing.T, s *Store, want map[string][]byte) {
	t.Helper()
	for key, val := range want {
		got, _, ok := s.Get(key)
		if !ok || !bytes.Equal(got, val) {
			t.Fatalf("%s = %q, %v after recovery", key, got, ok)
		}
	}
}

// TestManifestFastRecovery: a clean Close writes the index manifest, and
// the next Open restores from it — ManifestRecovered reports the log
// scan was skipped — then consumes it so a later crash cannot replay a
// stale index.
func TestManifestFastRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, 4<<10)
	want := fillStore(t, s, 100)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("clean Close left no manifest: %v", err)
	}

	r := openTest(t, dir, 1<<20, 4<<10)
	defer r.Close()
	st := r.Stats()
	if !st.ManifestRecovered {
		t.Fatal("Open fell back to the log scan despite a clean manifest")
	}
	if st.RecoveredRecords != uint64(len(want)) {
		t.Fatalf("RecoveredRecords = %d, want %d", st.RecoveredRecords, len(want))
	}
	checkRecovered(t, r, want)
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
		t.Error("manifest not consumed by the open that used it")
	}
	// The reopened store keeps working: appends land after the recovered
	// tail without clobbering it.
	if err := r.Put("post-restart", []byte("fresh"), 0); err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, r, want)
}

// TestManifestCorruptFallsBackToScan: a torn or bit-flipped manifest
// fails its CRC and recovery silently takes the scan path with no data
// loss.
func TestManifestCorruptFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, 4<<10)
	want := fillStore(t, s, 50)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, 1<<20, 4<<10)
	defer r.Close()
	st := r.Stats()
	if st.ManifestRecovered {
		t.Fatal("corrupt manifest trusted")
	}
	if st.RecoveredRecords == 0 {
		t.Fatal("scan fallback recovered nothing")
	}
	checkRecovered(t, r, want)
}

// TestManifestStaleSegmentFallsBack: if any segment file's size differs
// from what the manifest recorded (a write happened after the manifest,
// i.e. the manifest is stale), recovery must distrust it and scan.
func TestManifestStaleSegmentFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, 4<<10)
	want := fillStore(t, s, 50)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files: %v", err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad})
	f.Close()

	r := openTest(t, dir, 1<<20, 4<<10)
	defer r.Close()
	if r.Stats().ManifestRecovered {
		t.Fatal("stale manifest trusted despite segment size mismatch")
	}
	checkRecovered(t, r, want)
}

// TestManifestNotReplayedAfterCrash: the manifest is deleted by the open
// that consumes it, so a crash (no Close) followed by a reopen takes the
// scan path instead of replaying an index that no longer matches the
// log.
func TestManifestNotReplayedAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, 4<<10)
	want := fillStore(t, s, 50)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, 1<<20, 4<<10)
	if !r.Stats().ManifestRecovered {
		t.Fatal("first reopen missed the manifest fast path")
	}
	// Mutate, then simulate a crash by abandoning the store without Close
	// (closeAll releases the descriptors so the files can be reopened, but
	// writes no manifest).
	if err := r.Put("key-000", []byte("rewritten-after-restart"), 0); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	r.closeAll()
	r.closed = true
	r.mu.Unlock()

	r2 := openTest(t, dir, 1<<20, 4<<10)
	defer r2.Close()
	if r2.Stats().ManifestRecovered {
		t.Fatal("second open claims manifest recovery after a crash")
	}
	want["key-000"] = []byte("rewritten-after-restart")
	checkRecovered(t, r2, want)
}

// TestManifestRoundTripExact: what a manifest restores is what the store
// held at Close, to the record and the byte, access counters included.
func TestManifestRoundTripExact(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 16<<10, 4<<10)
	want := fillStore(t, s, 300) // reclaims: some records are gone
	for key := range want {
		s.Get(key)
	}
	s.Delete("key-299")
	delete(want, "key-299")
	n, live := s.Len(), liveBytes(s)
	if n == 0 || n == len(want) {
		t.Fatalf("Len = %d of %d: the store should hold some of them", n, len(want))
	}
	held := map[uint64]rec{}
	for _, sl := range s.index.slots {
		if sl.klen != 0 {
			held[sl.hash] = sl.rec
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, 16<<10, 4<<10)
	defer r.Close()
	if !r.Stats().ManifestRecovered {
		t.Fatal("the reopen did not use the manifest")
	}
	if r.Len() != n || liveBytes(r) != live {
		t.Fatalf("Len, LiveBytes = %d, %d after the round trip, want %d, %d", r.Len(), liveBytes(r), n, live)
	}
	for h, want := range held {
		if got := r.index.get(h); got == nil || *got != want {
			t.Fatalf("record %x = %v after the round trip, want %+v", h, got, want)
		}
	}
	for key, val := range want {
		if got, _, ok := r.Get(key); ok && !bytes.Equal(got, val) {
			t.Fatalf("%s = %q, want %q", key, got, val)
		}
	}
}

// TestManifestV1FallsBackToScan: a manifest in the format that keyed its
// entries by the key itself fails the magic check, and Open scans.
func TestManifestV1FallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, 4<<10)
	want := fillStore(t, s, 100)
	// Version 1: magic, segments, then per entry klen, key, seg, off,
	// vlen, expires and freq; a CRC over it all.
	v1 := append([]byte("SFLMAN01"), binary.LittleEndian.AppendUint32(nil, uint32(len(s.segs)))...)
	for _, seg := range s.segs {
		v1 = binary.LittleEndian.AppendUint64(v1, seg.seq)
		v1 = binary.LittleEndian.AppendUint64(v1, seg.size)
	}
	v1 = binary.LittleEndian.AppendUint64(v1, uint64(len(want)))
	for key := range want {
		r := s.index.get(keyHash(key))
		v1 = binary.LittleEndian.AppendUint16(v1, uint16(len(key)))
		v1 = append(v1, key...)
		v1 = binary.LittleEndian.AppendUint64(v1, r.seg)
		v1 = binary.LittleEndian.AppendUint64(v1, r.off)
		v1 = binary.LittleEndian.AppendUint32(v1, r.vlen)
		v1 = binary.LittleEndian.AppendUint64(v1, uint64(r.expires))
		v1 = append(v1, r.freq)
	}
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, 1<<20, 4<<10)
	defer r.Close()
	if st := r.Stats(); st.ManifestRecovered || st.RecoveredRecords != uint64(len(want)) {
		t.Fatalf("a v1 manifest: ManifestRecovered %v, %d records recovered, want a scan of %d",
			st.ManifestRecovered, st.RecoveredRecords, len(want))
	}
	checkRecovered(t, r, want)
}

// FuzzLoadManifest hands Open arbitrary manifest bodies, each sealed with
// a valid CRC so the parser sees them, beside the segment files of a real
// store. Open must never panic, must index no record that lies outside
// the segments, and must never serve a key another key's value.
func FuzzLoadManifest(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(Options{Dir: dir, MaxBytes: 1 << 20, SegmentBytes: 4 << 10})
	if err != nil {
		f.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%02d", i)
		want[key] = bytes.Repeat([]byte(key), 20+i)
		if err := s.Put(key, want[key], 0); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	segs := map[string][]byte{}
	names, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	for _, name := range names {
		segs[filepath.Base(name)], _ = os.ReadFile(name)
	}
	body := manifest[:len(manifest)-4]
	f.Add(body)
	f.Add(body[:len(body)-manifestEntry])
	f.Add(body[:len(body)/2])
	f.Add(body[:12])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		for name, data := range segs {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		sealed := binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
		if err := os.WriteFile(filepath.Join(dir, manifestName), sealed, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir, MaxBytes: 1 << 20, SegmentBytes: 4 << 10, FS: noSyncFS{faultfs.OS()}})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		for _, sl := range s.index.slots {
			if sl.klen == 0 {
				continue
			}
			if seg := s.segFor(sl.seg); seg == nil || sl.off+sl.size() > seg.size {
				t.Fatalf("indexed %+v lies outside every segment", sl.rec)
			}
		}
		for key, val := range want {
			if got, _, ok := s.Get(key); ok && !bytes.Equal(got, val) {
				t.Fatalf("Get(%s) = %.20q, want %.20q", key, got, val)
			}
		}
	})
}

// noSyncFS is the real filesystem without fsync: a fuzz target that opens
// and closes a store for every input spends most of its time in it else.
type noSyncFS struct{ faultfs.FS }

func (fs noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ faultfs.File }

func (noSyncFile) Sync() error { return nil }
