package filetier

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: 1 << 20, Buckets: 4})
	binary := []byte{0, 1, 2, 0xff, '\r', '\n', 'S', 'F'}
	cases := map[string][]byte{
		"plain":  []byte("value"),
		"binary": binary,
		"empty":  {},
	}
	for k, v := range cases {
		if err := s.Put(k, v, 0); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
	}
	for k, v := range cases {
		got, exp, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%q): ok=%v err=%v", k, ok, err)
		}
		if !bytes.Equal(got, v) || exp != 0 {
			t.Fatalf("Get(%q) = %q exp=%d", k, got, exp)
		}
	}
	if _, _, ok, err := s.Get("absent"); ok || err != nil {
		t.Fatalf("Get(absent) = ok=%v err=%v", ok, err)
	}
	if s.Len() != len(cases) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(cases))
	}
	st := s.Stats()
	if st.Puts != 3 || st.Hits != 3 || st.Misses != 1 || st.BytesWritten == 0 {
		t.Fatalf("stats off: %+v", st)
	}
}

func TestOverwriteServesLatest(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: 1 << 20, Buckets: 1})
	for i := 0; i < 10; i++ {
		if err := s.Put("key", []byte(fmt.Sprintf("v%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	v, _, ok, err := s.Get("key")
	if err != nil || !ok || string(v) != "v9" {
		t.Fatalf("Get = %q ok=%v err=%v", v, ok, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after overwrites", s.Len())
	}
}

func TestDeleteTombstone(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: 1 << 20, Buckets: 2})
	s.Put("gone", []byte("x"), 0)
	existed, err := s.Delete("gone")
	if err != nil || !existed {
		t.Fatalf("Delete: existed=%v err=%v", existed, err)
	}
	if _, _, ok, _ := s.Get("gone"); ok {
		t.Fatal("deleted key served")
	}
	if existed, _ := s.Delete("never"); existed {
		t.Fatal("Delete(absent) reported existed")
	}
}

func TestTTLExpiry(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: 1 << 20, Buckets: 2})
	clock := time.Now().UnixNano()
	s.now = func() int64 { return clock }
	s.Put("ttl", []byte("v"), clock+int64(time.Minute))
	if _, _, ok, _ := s.Get("ttl"); !ok {
		t.Fatal("unexpired entry missed")
	}
	clock += int64(2 * time.Minute)
	if _, _, ok, _ := s.Get("ttl"); ok {
		t.Fatal("expired entry served")
	}
}

func TestRecoveryAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, MaxBytes: 1 << 20, Buckets: 4})
	for i := 0; i < 50; i++ {
		if err := s.Put(fmt.Sprintf("key-%02d", i), []byte(fmt.Sprintf("val-%02d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete("key-07")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, Options{Dir: dir, MaxBytes: 1 << 20, Buckets: 4})
	if r.Len() != 49 {
		t.Fatalf("recovered %d entries, want 49", r.Len())
	}
	if r.Stats().RecoveredRecords == 0 {
		t.Fatal("RecoveredRecords not counted")
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%02d", i)
		v, _, ok, err := r.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if i == 7 {
			if ok {
				t.Fatal("tombstoned key resurrected by recovery")
			}
			continue
		}
		if !ok || string(v) != fmt.Sprintf("val-%02d", i) {
			t.Fatalf("%s = %q ok=%v after reopen", key, v, ok)
		}
	}
}

// TestTornTailTruncated: a crash mid-append leaves a partial record at a
// bucket's tail; recovery must truncate it and keep everything before it.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, MaxBytes: 1 << 20, Buckets: 1})
	s.Put("whole", []byte("intact"), 0)
	s.Close()

	path := filepath.Join(dir, "bucket-0000.dat")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible record head with most of its body missing.
	f.Write([]byte{0x53, 0x46, 0x54, 0x31, 0, 0, 4, 0, 0, 0})
	f.Close()

	r := mustOpen(t, Options{Dir: dir, MaxBytes: 1 << 20, Buckets: 1})
	if v, _, ok, err := r.Get("whole"); err != nil || !ok || string(v) != "intact" {
		t.Fatalf("record before torn tail lost: %q ok=%v err=%v", v, ok, err)
	}
	// The tail was truncated away, so appends continue from a clean
	// offset and survive another recovery.
	if err := r.Put("after", []byte("crash"), 0); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2 := mustOpen(t, Options{Dir: dir, MaxBytes: 1 << 20, Buckets: 1})
	if v, _, ok, _ := r2.Get("after"); !ok || string(v) != "crash" {
		t.Fatalf("append after torn-tail recovery lost: %q ok=%v", v, ok)
	}
}

// TestCorruptRecordIsMiss: flipped value bytes fail the record CRC, and
// the read reports a miss, not an error (the DRAM tier re-fetches).
func TestCorruptRecordIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, MaxBytes: 1 << 20, Buckets: 1})
	s.Put("victim", bytes.Repeat([]byte("v"), 64), 0)

	path := filepath.Join(dir, "bucket-0000.dat")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := s.Get("victim"); ok || err != nil {
		t.Fatalf("corrupt record: ok=%v err=%v, want miss", ok, err)
	}
}

// TestCompaction fills one bucket past its budget and checks the rewrite:
// dead space reclaimed, oldest live records FIFO-dropped to 3/4 budget,
// survivors still served, counters advanced.
func TestCompaction(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: 8 << 10, Buckets: 1})
	val := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 64; i++ {
		if err := s.Put(fmt.Sprintf("key-%03d", i), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 || st.GCBytes == 0 {
		t.Fatalf("no compactions after overflow: %+v", st)
	}
	if st.Dropped == 0 {
		t.Fatalf("FIFO eviction dropped nothing: %+v", st)
	}
	// Newest entries survive FIFO eviction; every surviving entry reads
	// back correctly.
	if _, _, ok, err := s.Get("key-063"); err != nil || !ok {
		t.Fatalf("newest key lost by compaction: ok=%v err=%v", ok, err)
	}
	live := 0
	for i := 0; i < 64; i++ {
		v, _, ok, err := s.Get(fmt.Sprintf("key-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			live++
			if !bytes.Equal(v, val) {
				t.Fatalf("key-%03d corrupted by compaction", i)
			}
		}
	}
	if live == 0 || live == 64 {
		t.Fatalf("compaction kept %d of 64", live)
	}
}

func TestClosedErrors(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: 1 << 20})
	s.Put("k", []byte("v"), 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k2", []byte("v"), 0); err != ErrClosed {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}
	if _, _, _, err := s.Get("k"); err != ErrClosed {
		t.Fatalf("Get after Close: %v, want ErrClosed", err)
	}
	if err := s.Sync(); err != ErrClosed {
		t.Fatalf("Sync after Close: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
