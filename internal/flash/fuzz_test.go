package flash

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"s3fifo/internal/faultfs"
)

// corpusSegment builds a real segment file through the Store API and
// returns its raw bytes: the honest starting points the fuzzer mutates.
func corpusSegment(f *testing.F, build func(s *Store)) []byte {
	f.Helper()
	dir := f.TempDir()
	s, err := Open(Options{Dir: dir, MaxBytes: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	build(s)
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(names) == 0 {
		f.Fatalf("no segment produced: %v", err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzRecoverSegment feeds arbitrary bytes to Open as the contents of a
// segment file. Whatever the damage — torn tails, flipped CRC bytes,
// lying length fields — recovery must never error or panic, must leave
// the file in a state a second recovery accepts without further
// truncation, and must leave the store fully usable.
func FuzzRecoverSegment(f *testing.F) {
	valid := corpusSegment(f, func(s *Store) {
		s.Put("alpha", []byte("the first value"), 0)
		s.Put("beta", bytes.Repeat([]byte{0xAB}, 100), 0)
		s.Put("alpha", []byte("superseded value"), 0)
	})
	f.Add(valid)
	// Torn tail: the last append stopped mid-record.
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:len(valid)/2])
	// A flipped byte in the middle lands in a record body and breaks its CRC.
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(corpusSegment(f, func(s *Store) {
		s.Put("doomed", []byte("short-lived"), 1) // expired long ago
		s.Put("kept", []byte("stays"), 0)
		s.Delete("doomed")
	}))
	f.Add([]byte{})
	f.Add([]byte("not a segment at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Recovery reads what is on disk, so fsync buys this target nothing
		// but time.
		opts := Options{Dir: dir, MaxBytes: 1 << 22, FS: noSyncFS{faultfs.OS()}}

		// Recovery accepts any damage without erroring.
		s, err := Open(opts)
		if err != nil {
			t.Fatalf("Open over fuzzed segment: %v", err)
		}
		liveLen := s.Len()
		if liveBytes(s) > s.DiskUsed() {
			t.Fatalf("live bytes %d exceed disk used %d", liveBytes(s), s.DiskUsed())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// Recovery is idempotent: the first Open truncated any invalid
		// suffix, so the second must find nothing left to repair. (Len may
		// only shrink, e.g. a record whose TTL lapsed between opens.)
		s, err = Open(opts)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if st := s.Stats(); st.TruncatedBytes != 0 {
			t.Fatalf("second recovery truncated %d more bytes", st.TruncatedBytes)
		}
		if s.Len() > liveLen {
			t.Fatalf("second recovery grew the index: %d -> %d", liveLen, s.Len())
		}

		// The store must be fully usable after recovery.
		probe := []byte("probe-value")
		if err := s.Put("fuzz-probe", probe, 0); err != nil {
			t.Fatalf("Put after recovery: %v", err)
		}
		if v, _, ok := s.Get("fuzz-probe"); !ok || !bytes.Equal(v, probe) {
			t.Fatalf("Get after recovery = %q, %v", v, ok)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// The probe survives a restart, and a persisted delete sticks.
		s, err = Open(opts)
		if err != nil {
			t.Fatalf("third Open: %v", err)
		}
		defer s.Close()
		if v, _, ok := s.Get("fuzz-probe"); !ok || !bytes.Equal(v, probe) {
			t.Fatalf("probe lost across restart: %q, %v", v, ok)
		}
		if _, err := s.Delete("fuzz-probe"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if s.Contains("fuzz-probe") {
			t.Fatal("Contains after Delete")
		}
	})
}
